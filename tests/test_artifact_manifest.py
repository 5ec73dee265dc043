"""Every artifact of the manifest's CLI runs keeps its bytes (see
artifact_manifest.py, which also regenerates the manifest)."""

import pytest

import artifact_manifest


def test_artifacts_match_manifest(tmp_path):
    recorded = artifact_manifest.load()
    here = artifact_manifest.environment()
    if recorded["environment"] != here:
        pytest.skip(f"the manifest was made on {recorded['environment']}, "
                    f"and this environment is {here}")
    assert artifact_manifest.moved(recorded["runs"], artifact_manifest.compute(str(tmp_path))) == []
