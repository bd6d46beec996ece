"""The command line's contract: every call of ``tests/cli_corpus.json`` prints
the same bytes and returns the same exit code.

``tests/make_cli_corpus.py`` writes the corpus; a change that alters what the
command line prints on purpose rewrites it in the same diff.
"""

import json

from make_cli_corpus import CORPUS, call, calls, pinned_environment, stored


def test_every_call_of_the_corpus_replays_byte_identically(tmp_path):
    entries = json.loads(CORPUS.read_text())
    codes = {entry["code"] for entry in entries}
    assert {0, 2, 3} <= codes
    commands = {entry["argv"][0] for entry in entries if entry["argv"]}
    assert {"parse", "compose", "invert", "exp", "commutes", "kernel-coords", "decompose",
            "character", "verify-paper"} <= commands
    mismatches = []
    with pinned_environment():
        for entry in entries:
            code, out, err = call(entry["argv"], entry["word"], str(tmp_path))
            got = {"code": code, "stdout": stored(out), "stderr": stored(err)}
            want = {key: entry[key] for key in got}
            if got != want:
                mismatches.append((entry["argv"], want, got))
    assert mismatches == []


def test_the_generator_writes_the_stored_calls():
    # Its seeded invert words are written by format_word, and must be the
    # stored word texts, which the writer the corpus was first made with wrote.
    entries = json.loads(CORPUS.read_text())
    assert [(entry["argv"], entry["word"]) for entry in entries] == calls()
