"""The rule by which ``scripts/bench_layers.py`` lists a row as ``risen``, and its peak probe."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"
_spec = importlib.util.spec_from_file_location("bench_layers", _path)
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)


def paired(later, first):
    return [a / b for a, b in zip(later, first)]


def test_a_row_whose_rerun_does_not_confirm_it_has_not_risen():
    # ExplicitBounds(1000-wide) index_of_us in a 5-round run of a change that left it
    # alone: paired q1 1.038 and median 1.539; 8 alternating worker interpreters gave 0.976
    rounds = paired([102.0, 103.8, 153.9, 160.0, 170.0], [100.0] * 5)
    assert bench_layers.risen(rounds)   # listed, before its re-run
    rerun = paired([97.6, 97.1, 98.0, 97.6, 96.9, 97.6, 98.3, 97.6], [100.0] * 8)
    assert not bench_layers.risen(rounds, rerun)


def test_a_row_slower_in_every_sample_has_risen():
    first = [0.208, 0.211, 0.209, 0.210, 0.208, 0.230, 0.207, 0.209, 0.212, 0.210]
    slower = [t * 1.05 for t in first]
    assert bench_layers.risen(paired(slower[:5], first[:5]), paired(slower, first))
    assert not bench_layers.risen(paired(first[:5], first[:5]), paired(first, first))


def test_the_resident_peak_probe_loads_only_what_the_command_loads():
    # tracemalloc is imported only for the traced peak, so VmHWM counts the command alone
    probe = bench_layers.PEAKS["cli_peak_rss_kb"]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", probe,
                           "partition", "--width", "3", "--cells", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("cell")
    *imports, peak = proc.stderr.splitlines()
    assert int(peak) > 0
    assert any(line.endswith("| coarsesum") for line in imports)
    assert not [line for line in imports if "tracemalloc" in line]
