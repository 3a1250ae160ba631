"""Every CLI output of the byte-identity matrix matches its checked-in manifest."""

import json

import mpmath

from byte_identity import MANIFEST, mismatches, run_rows


def test_outputs_match_manifest(tmp_path):
    run_rows(tmp_path)
    assert mismatches(tmp_path, json.loads(MANIFEST.read_text())) == []


def test_outputs_match_manifest_under_another_mpmath(tmp_path, monkeypatch):
    # the routes that mirror mpmath 1.3's internals step aside for mpf_log, mpf_exp
    # and from_str, which give the same bits
    monkeypatch.setattr(mpmath, "__version__", "1.4.0")
    run_rows(tmp_path)
    assert mismatches(tmp_path, json.loads(MANIFEST.read_text())) == []
