"""The CLI corpus: every command line that the tests, the README and CI
check, in one file, ``cli_corpus.txt``, run in process through
``cyclezeta.cli.main``.

Each entry is a command line as typed, ``$ cyclezeta <arguments>``, with
optional notes after `` # ``, followed by its pinned output, one line a
line.  The notes are ``exit=N`` (the expected exit code, 0 if absent),
``wall=S`` (a bound on the seconds the run may take) and ``check=NAME``
(one of ``CHECKS``, which then stands in for the pinned output).  The
pinned output is standard output when the exit code is 0 and standard
error otherwise, and the other stream must be empty; of a usage error
(exit 1) it is the last line, the error, as argparse wraps the usage lines
above it to the terminal's width.  Lines starting with ``#`` and blank
lines are comments.  No command line appears twice: it is the test id.

Re-record every pinned output and its exit code after a deliberate
change with

    PYTHONPATH=src python tests/cli_corpus.py

which rewrites ``cli_corpus.txt`` in place: ``git diff`` then shows what
moved.
"""

import io
import json
import math
import pathlib
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout

from cyclezeta.cli import main

PATH = pathlib.Path(__file__).with_name("cli_corpus.txt")
_PROMPT = "$ cyclezeta "


class Entry:
    def __init__(self, argv, code, wall, check):
        self.argv, self.code, self.wall, self.check = argv, code, wall, check
        self.pinned = ""

    @property
    def args(self):
        return shlex.split(self.argv)

    def __str__(self):  # the test id
        return self.argv

    def header(self):
        notes = [f"exit={self.code}"] if self.code else []
        notes += [f"wall={self.wall:g}"] if self.wall else []
        notes += [f"check={self.check}"] if self.check else []
        return _PROMPT + self.argv + (" # " + " ".join(notes) if notes else "")


def load(text):
    """Each line of text in order, an ``Entry`` for each command line."""
    lines = []
    for line in text.splitlines():
        if line.startswith(_PROMPT):
            argv, _, notes = line[len(_PROMPT):].partition(" # ")
            note = dict(word.split("=") for word in notes.split())
            # a misspelt note would drop its assertion without a word
            assert set(note) <= {"exit", "wall", "check"}, line
            assert note.get("check") in (None, *CHECKS), line
            lines.append(Entry(argv, int(note.get("exit", 0)),
                               float(note["wall"]) if "wall" in note else None,
                               note.get("check")))
        elif line and not line.startswith("#"):
            lines[-1].pinned += line + "\n"
        else:
            lines.append(line)
    argvs = [line.argv for line in lines if isinstance(line, Entry)]
    assert len(argvs) == len(set(argvs)), "a command line appears twice"
    return lines


def run(entry):
    """(exit code, standard output, standard error, seconds) of the entry."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(entry.args)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def shown(code, out, err):
    """(what an entry pins of a run, the other stream, which stays empty)."""
    if code == 0:
        return out, err
    if code == 1:  # the usage lines are those of the parser that reports the error
        usage, _, error = err.rstrip("\n").rpartition("\n")
        assert usage.startswith(f"usage: {error.partition(': error: ')[0]} [-h]"), err
        return error + "\n", out
    return err, out


def results(argv):
    """The results of the pinned entry whose command line is argv."""
    return json.loads(next(e.pinned for e in ENTRIES if e.argv == argv))["results"]


def _finite(out):
    # json.dumps writes a float that is not finite as NaN or (-)Infinity
    def refuse(name):
        raise AssertionError(f"{name} printed")
    json.loads(out, parse_constant=refuse)


def _divcount_h4(out):
    assert json.loads(out)["results"]["count"]["value"] == "1396", out


def _ff_points_h9(out):
    # points of P^1 over F_2(t) of height at most 9, by the Moebius
    # recurrence on the coprime coordinate tuples
    q, n, h = 2, 1, 9
    c = []
    for k in range(h + 1):
        c.append(q ** ((n + 1) * (k + 1)) - 1 - sum(q ** j * c[k - j] for j in range(1, k + 1)))
    got = json.loads(out)["results"]["count"]["value"]
    assert got == str(c[h] // (q - 1)) == "524289", got


def _mc_norm(out):
    # v((z1 + 1)(z2 + 3)(z3 + 4)) = sqrt(2 * 10 * 17)
    v = json.loads(out)["results"]["v"]
    assert abs(v["value"] - math.sqrt(340)) <= v["error"], v


def _sh_set_nodes(out):
    # the box does not depend on the nodes, and the largest height on few
    # nodes lies within its error of that on 64
    fine = results("census sh-set --d 1 --a 0.25 --h 4 --nodes 64")
    got = json.loads(out)["results"]
    assert got["all_heights_ok"]["value"] and got["count"] == fine["count"], got
    height, error = got["max_height"]["value"], got["max_height"]["error"]
    assert abs(height - fine["max_height"]["value"]) <= error, got


def _verify_clean(out):
    got = json.loads(out)["results"]
    assert got["fail"]["value"] == got["warn"]["value"] == "0", got


def _usage(out):
    assert out.startswith("usage: cyclezeta"), out


def _names_no_scheme(out):
    # the refusal holds on every scheme, so it offers none
    assert out.startswith("domain error: ") and "monte_carlo" not in out, out


CHECKS = {
    "finite": _finite,
    "divcount_h4": _divcount_h4,
    "ff_points_h9": _ff_points_h9,
    "mc_norm": _mc_norm,
    "sh_set_nodes": _sh_set_nodes,
    "verify_clean": _verify_clean,
    "usage": _usage,
    "names_no_scheme": _names_no_scheme,
}

LINES = load(PATH.read_text())
ENTRIES = [line for line in LINES if isinstance(line, Entry)]


def rerecord():
    """Run every pinned entry and write its exit code and output back."""
    for entry in ENTRIES:
        if entry.check is None:
            entry.code, out, err, _ = run(entry)
            entry.pinned = shown(entry.code, out, err)[0]
            assert entry.pinned.endswith("\n") and "\n\n" not in entry.pinned, entry.argv
    PATH.write_text("".join(
        f"{line.header()}\n{line.pinned}" if isinstance(line, Entry) else f"{line}\n"
        for line in LINES))


if __name__ == "__main__":
    rerecord()
