"""Put past defects back into scratch copies of the package and check that their tests fail.

Usage::

    python scripts/mutants.py

``MUTANTS`` is a catalogue of defects that the code once had or nearly had, each
stated as one textual patch: a file under ``src/coarsesum/``, the exact text to
replace, which must occur there exactly once, its replacement, and the tests that
must fail on it.  The tests named by the entries first run on an unpatched copy
of ``src/``, where each must pass.  Then, for each entry, ``src/`` is copied to a
temporary directory, the patch applied, and its tests run with that copy first on
``PYTHONPATH``, a fixed hypothesis seed and, from a working directory of their own,
an empty hypothesis example database; the entry is caught only if every test it
names fails or errors.  An entry whose text is not found is an error: a change that
moves the code must restate the entry with it.  Exit codes: 0 when the unpatched
copy passes and every entry is caught, else 1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
FOLD_MODEL = "tests/test_model.py::test_fold_prints_what_the_model_prints"
INERT_MODEL = "tests/test_model.py::test_inert_prints_what_the_model_prints"
STPETE_MODEL = "tests/test_model.py::test_stpete_prints_what_the_model_prints"


class Mutant(NamedTuple):
    name: str
    defect: str
    file: str  # under src/coarsesum/
    old: str
    new: str
    tests: tuple


MUTANTS = [
    Mutant("stale-pick", "a fold kernel whose sum keeps its old scaled pick when it moves",
           "ops.py",
           "                    s_pick = _pick(*span(new_cell), policy)\n",
           "                    s_pick = s_pick if n > 2 else _pick(*span(new_cell), policy)\n",
           (FOLD_MODEL,)),
    Mutant("trailing-run-skips-a-field",
           "a row writer whose settled tail ignores the last field, the fold's `absorbed`",
           "_rows.py",
           "    for c in columns[1:]:\n",
           "    for c in columns[1:-1]:\n",
           (FOLD_MODEL,)),
    Mutant("table-tail-str", "a table's settled tail written with `str`, not as a decimal",
           "_rows.py",
           "tail.append(str(c[-1]) if type(texts) is map else texts[-1])",
           'tail.append(str(c[-1]) if type(texts) is map or q and fmt == "table" else texts[-1])',
           (FOLD_MODEL,)),
    Mutant("certificate-below-every-sum",
           "a certificate that names the paper's absorbing cell of the bound before any fold",
           "inertness.py",
           "    steps = _fold_steps(ctx, map(gen, range(1, horizon + 1)))\n",
           "    if increment_bound is not None and zero:\n"
           "        c = first_absorbing_cell(p, ctx.policy, ctx.normalize(increment_bound))\n"
           "        if c is not None:\n"
           "            value = p.unscaled(_pick(*p.span(c), ctx.policy))\n"
           "            return InertVerdict(1, c, value, horizon, True)\n"
           "    steps = _fold_steps(ctx, map(gen, range(1, horizon + 1)))\n",
           (INERT_MODEL,)),
    Mutant("sampler-counter-off-by-one-block",
           "a sampler whose Philox counter starts one block late",
           "stpetersburg.py",
           "    for start in range(1, blocks + 1, n):\n",
           "    for start in range(2, blocks + 2, n):\n",
           (STPETE_MODEL,)),
    Mutant("grid-without-fraction",
           "a family module whose annotation reads a name it never imports",
           "_singleton_grid.py",
           "from fractions import Fraction\n",
           "",
           ("tests/test_values.py::test_every_module_imports_and_every_public_name_resolves_"
            "in_a_fresh_interpreter",)),
]


def run_tests(src: Path, tests, work: str) -> tuple:
    """(exit code, ids of the failed or erroring tests and modules) of ``tests`` on ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave no __pycache__ in the repo
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "--rootdir", str(ROOT),
                           "-p", "no:cacheprovider", "--hypothesis-seed=0",
                           *(str(ROOT / test) for test in tests)],
                          env=env, cwd=work, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    bad = [line.split()[1].partition("::") for line in proc.stdout.splitlines()
           if line.startswith(("FAILED ", "ERROR "))]
    # pytest names each test by its path from ``work``: name it by its path from ROOT
    return proc.returncode, [os.path.relpath(os.path.join(work, path), ROOT) + sep + rest
                             for path, sep, rest in bad]


def failed(test: str, bad: list) -> bool:
    """Whether ``test`` failed or errored: itself, one of its parameters, or its module."""
    return any(b == test or b.startswith(test + "[") or test.startswith(b + "::") for b in bad)


def copy_src(work: str) -> Path:
    src = Path(work) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    start, bad_entries = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        tests = sorted({test for m in MUTANTS for test in m.tests})
        code, bad = run_tests(copy_src(work), tests, work)
        if code:
            print(f"error: the unpatched copy fails {', '.join(bad) or 'its tests'}")
            return 1
        print(f"unpatched copy passes {len(tests)} tests")
    for m in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutants-") as work:
            path = copy_src(work) / "coarsesum" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                bad_entries += 1
                print(f"error {m.name}: its text occurs {text.count(m.old)} times in {m.file}, "
                      "not once")
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            began = time.perf_counter()
            _, bad = run_tests(path.parents[1], m.tests, work)
            passed = [test for test in m.tests if not failed(test, bad)]
            bad_entries += bool(passed)
            verdict = f"FAILURE, these pass: {', '.join(passed)}" if passed else "caught"
            print(f"{m.name}: {verdict} ({time.perf_counter() - began:.1f} s; {m.defect})")
    print(f"{len(MUTANTS) - bad_entries} of {len(MUTANTS)} entries caught "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad_entries else 0


if __name__ == "__main__":
    sys.exit(main())
