"""Every CLI output of the byte-identity matrix matches its checked-in manifest."""

import json

from byte_identity import MANIFEST, mismatches, run_rows


def test_outputs_match_manifest(tmp_path):
    run_rows(tmp_path)
    assert mismatches(tmp_path, json.loads(MANIFEST.read_text())) == []
