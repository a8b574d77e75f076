"""Command-line flows: generate, extract, verify, bench, bound-experiment."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netpeel.cli as cli
from netpeel.cli import main
from netpeel.extract2 import extract_two_layer
from netpeel.extract3 import extract_three_layer
from netpeel.oracle.generate import generate_three_layer, generate_two_layer
from netpeel.oracle.nets import AffineMap, TwoLayerNet, batch_eval
from netpeel.oracle.query import as_oracle
from netpeel.oracle.serialize import load_net, save_net


def _generate(tmp_path, name, *args):
    path = tmp_path / name
    code = main(["generate", "--out", str(path), *args])
    assert code == 0
    return path


# ------------------------------------------------------------------ generate


def test_generate_writes_the_requested_width(tmp_path):
    path = _generate(tmp_path, "net.json", "--depth", "2", "--d", "3",
                     "--d1", "4", "--seed", "1")
    doc = json.loads(path.read_text())
    assert doc["depth"] == 2
    assert doc["d1"] == 4
    assert len(doc["W"]) == 4 * 3


def test_generate_is_deterministic(tmp_path):
    a = _generate(tmp_path, "a.json", "--d", "3", "--d1", "4", "--seed", "1")
    b = _generate(tmp_path, "b.json", "--d", "3", "--d1", "4", "--seed", "1")
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_wide_first_layer_before_writing(tmp_path):
    path = tmp_path / "bad.json"
    code = main(["generate", "--depth", "3", "--d", "2", "--d1", "5",
                 "--out", str(path)])
    assert code == 2
    assert not path.exists()


def test_generate_rejects_a_one_unit_first_layer(tmp_path, capsys):
    """With d1 = 1 every second-layer crease is parallel to the first-layer
    plane, so the net could be drawn but never extracted."""
    path = tmp_path / "one.json"
    code = main(["generate", "--depth", "3", "--d", "2", "--d1", "1",
                 "--d2", "3", "--out", str(path)])
    assert code == 2
    assert "2 <= d1 <= d" in capsys.readouterr().err
    assert not path.exists()


def test_generated_file_reloads_to_the_same_function(tmp_path):
    path = _generate(tmp_path, "net.json", "--d", "3", "--d1", "4", "--seed", "1")
    reloaded = load_net(path)
    direct = generate_two_layer(3, 4, np.random.default_rng(1))
    xs = np.random.default_rng(0).uniform(0.0, 10.0, size=(100, 3))
    assert np.array_equal(batch_eval(reloaded, xs), batch_eval(direct, xs))


# sha256 of the concatenated `generate --seed s` files, in seed order, for
# the benchmark's d2-wide and d3-small pools.  Any change to the document
# format or to the generators' random stream shows here.
_POOL_DIGESTS = [
    (("--d", "10", "--d1", "32"), 10,
     "28bc0d38f045949a246678bba8d78fba175ded6f6486b5a5f0ff90e0d5fa3411"),
    (("--depth", "3", "--d", "6", "--d1", "3", "--d2", "9"), 48,
     "4c00a9617b37b66b8713802ab4479543184d7074c280ad55200ec1abdb4404e4"),
]


@pytest.mark.parametrize("shape, n_seeds, digest", _POOL_DIGESTS,
                         ids=["d2-wide", "d3-small"])
def test_generated_documents_are_pinned(tmp_path, shape, n_seeds, digest):
    sha = hashlib.sha256()
    for seed in range(n_seeds):
        path = _generate(tmp_path, f"net{seed}.json", *shape, "--seed", str(seed))
        sha.update(path.read_bytes())
    assert sha.hexdigest() == digest


# ------------------------------------------------------------------- extract


def test_extract_report_verifies_against_the_truth(tmp_path):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "3", "--seed", "5")
    report = tmp_path / "report.json"
    assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
    assert main(["verify", "--truth", str(net), "--candidate", str(report),
                 "--tau", "1e-6"]) == 0


def test_extract_depth3_end_to_end(tmp_path):
    net = _generate(tmp_path, "net3.json", "--depth", "3", "--d", "3",
                    "--d1", "2", "--d2", "6", "--seed", "2")
    report = tmp_path / "report3.json"
    assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
    assert main(["verify", "--truth", str(net), "--candidate", str(report)]) == 0


@pytest.mark.parametrize("shape", [
    ("--d", "2", "--d1", "3", "--seed", "5"),
    ("--depth", "3", "--d", "3", "--d1", "2", "--d2", "6", "--seed", "2"),
], ids=["depth2", "depth3"])
def test_extract_accounts_every_query(tmp_path, shape):
    net = _generate(tmp_path, "net.json", *shape)
    report = tmp_path / "report.json"
    assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["total_queries"] == sum(doc["phase_queries"].values())
    assert doc["total_queries"] > 0
    assert doc["parameter_reads"] == 0
    assert 0.0 <= doc["residual_headroom"] <= 1.0


@pytest.mark.parametrize("shape", [
    ("--d", "2", "--d1", "3", "--seed", "5"),
    ("--depth", "3", "--d", "3", "--d1", "2", "--d2", "6", "--seed", "2"),
], ids=["depth2", "depth3"])
def test_extract_report_times_every_phase(tmp_path, shape):
    net = _generate(tmp_path, "net.json", *shape)
    report = tmp_path / "report.json"
    assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    phases = doc["phase_seconds"]
    assert list(phases) == list(doc["phase_queries"])
    assert all(t >= 0.0 for t in phases.values())
    # The phases run back to back inside the timed run; each is rounded to
    # 1e-6 s and the run to 1e-4 s.
    assert sum(phases.values()) <= doc["seconds"] + 1e-4 + 1e-6 * len(phases)


def test_extract_is_deterministic_apart_from_timing(tmp_path):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "3", "--seed", "5")
    docs = []
    for name in ("r1.json", "r2.json"):
        report = tmp_path / name
        assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        doc.pop("seconds")
        doc.pop("phase_seconds")
        docs.append(doc)
    assert docs[0] == docs[1]


# Seed 0 of the benchmark's d2-wide and d3-small cells.  Any change to these
# counts is a change of the algorithm and has to be reported as one.
_PINNED_COUNTS = [
    (("--d", "10", "--d1", "32"),
     {"scan": 779, "recover": 832, "refine": 704, "skip": 27}, 2342),
    (("--depth", "3", "--d", "6", "--d1", "3", "--d2", "9"),
     {"collect": 498, "filter": 108, "signs": 0, "peel": 423}, 1029),
]


@pytest.mark.parametrize("shape, phases, total", _PINNED_COUNTS,
                         ids=["d2-wide", "d3-small"])
def test_extract_query_counts_are_pinned(tmp_path, shape, phases, total):
    net = _generate(tmp_path, "net.json", *shape, "--seed", "0")
    report = tmp_path / "report.json"
    assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["phase_queries"] == phases
    assert doc["total_queries"] == total


# sha256 of the seed-0 `extract` report of each cell above, with `seconds`
# and `phase_seconds` dropped and the keys sorted.  Last re-pinned when
# each sweep began to read a point once, which lowered the counts it holds.
_REPORT_DIGESTS = [
    (("--d", "10", "--d1", "32"),
     "92d6592c4bf8938bf573ed410c2c09ba6662951e6252266d7f311145bf866552"),
    (("--depth", "3", "--d", "6", "--d1", "3", "--d2", "9"),
     "61cd5653ae09648119550ba27e6672edb27dc4cde17346dc4363530f46812670"),
]


@pytest.mark.parametrize("shape, digest", _REPORT_DIGESTS,
                         ids=["d2-wide", "d3-small"])
def test_extract_reports_are_pinned_byte_for_byte(tmp_path, shape, digest):
    """A speed-up must leave every recovered parameter as it was, to the bit.

    The digest pins this BLAS build (numpy 2.4.6 with scipy-openblas
    0.3.31): another BLAS may sum a product in another order and change a
    parameter in the last bit.  Where the query counts above still hold and
    only this test fails, check for that before suspecting the code.
    """
    net = _generate(tmp_path, "net.json", *shape, "--seed", "0")
    report = tmp_path / "report.json"
    assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    doc.pop("seconds")
    doc.pop("phase_seconds")
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Per benchmark pool: sha256 over the pool, seed by seed, of the generated
# file and the recovered network's document, and the pool's per-phase query
# totals.  The seed-0 pins above see one net per cell; these see every net
# the benchmark runs.  A change that keeps every network but moves a count
# re-pins only the totals.
_ROUND_TRIP_PINS = [
    (("--d", "10", "--d1", "32"), 10,
     "f53d219e95e5937583a2254345c3139bfb888e27a98aa8c363e725b3452619db",
     {"scan": 8018, "recover": 8320, "refine": 7040, "skip": 270}),
    (("--depth", "3", "--d", "6", "--d1", "3", "--d2", "9"), 48,
     "aebdd6bac0c6334659492cb5151cf8d1e6e3a443f25affcc50fd251b0e51d0e2",
     {"collect": 23212, "filter": 5601, "signs": 0, "peel": 20622}),
]


@pytest.mark.parametrize("shape, n_seeds, digest, totals", _ROUND_TRIP_PINS,
                         ids=["d2-wide", "d3-small"])
def test_round_trips_are_pinned_over_each_pool(tmp_path, shape, n_seeds, digest, totals):
    """Every generated net and recovered network of the pool, to the bit, and
    its per-phase query totals.  The digests carry the BLAS caveat of the
    test above."""
    net = tmp_path / "net.json"
    report = tmp_path / "report.json"
    sha = hashlib.sha256()
    got = dict.fromkeys(totals, 0)
    for seed in range(n_seeds):
        assert main(["generate", *shape, "--seed", str(seed), "--out", str(net)]) == 0
        assert main(["extract", "--input", str(net), "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        sha.update(net.read_bytes())
        sha.update(json.dumps(doc["network"], sort_keys=True).encode())
        for phase, n in doc["phase_queries"].items():
            got[phase] += n
    assert sha.hexdigest() == digest
    assert got == totals


def test_extract_fails_gracefully_on_an_unresolvable_kink(tmp_path):
    """A unit bending less than the probe resolution reads as degenerate."""
    net = TwoLayerNet([[6e-5]], [-6e-5], [1], AffineMap(np.array([1.0]), 0.0))
    path = tmp_path / "flat.json"
    save_net(path, net)
    code = main(["extract", "--input", str(path), "--delta", "0.01",
                 "--out", str(tmp_path / "report.json")])
    assert code == 3


def test_extract_budget_exhaustion_exit_code(tmp_path):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "3", "--seed", "5")
    code = main(["extract", "--input", str(net), "--d1-max", "1",
                 "--out", str(tmp_path / "report.json")])
    assert code == 4


def test_extract_missing_input_is_a_usage_error(tmp_path):
    code = main(["extract", "--input", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "report.json")])
    assert code == 2


_NET2 = {"format": "netpeel-net", "depth": 2, "d": 2, "d1": 2,
         "W": [1.0, 0.0, 0.0, 1.0], "b": [-1.0, -2.0], "u": [1, -1]}
_NET3 = {"format": "netpeel-net", "depth": 3, "d": 2, "d1": 2, "d2": 2,
         "W": [1.0, 0.0, 0.0, 1.0], "b": [0.0, 0.0],
         "V": [1.0, 1.0, 1.0, -1.0], "c": [0.5, -0.5], "u": [1, 1]}
_BAD_INPUTS = {
    "malformed.json": '{"depth": 2, "d": ',
    "invalid.json": '{"format": "netpeel-net", "depth": 2, "d": 2}',
    "short-u.json": json.dumps({**_NET2, "u": [1]}),
    "short-b.json": json.dumps({**_NET2, "b": [0.5]}),
    "nan-weight.json": json.dumps({**_NET2, "W": [math.nan, 0.0, 0.0, 1.0]}),
    "short-c.json": json.dumps({**_NET3, "c": [0.5]}),
    "zero-dim.json": json.dumps({**_NET2, "d": 0, "d1": 0, "W": [], "b": [], "u": []}),
    "fractional-d.json": json.dumps(
        {"depth": 2, "d": 2.7, "d1": 1, "W": [1, 0.5], "b": [0.1], "u": [1.7]}),
    "fractional-d1.json": json.dumps({**_NET2, "d1": 2.5}),
    "fractional-d2.json": json.dumps({**_NET3, "d2": 2.5}),
    "fractional-u.json": json.dumps({**_NET2, "u": [1.7, -1]}),
    "zero-u.json": json.dumps({**_NET2, "u": [0, 1]}),
    "infinite-d.json": json.dumps({**_NET2, "d": math.inf}),
    "string-weights.json": json.dumps({**_NET2, "W": ["1.0", "0.0", "0.0", "1.0"]}),
    "boolean-u.json": json.dumps({**_NET2, "u": [True, True]}),
    "string-d.json": json.dumps({**_NET2, "d": "2"}),
    "boolean-d1.json": json.dumps({**_NET2, "d": 1, "d1": True, "W": [1.0], "b": [0.5],
                                   "u": [1]}),
    "nested-W.json": json.dumps({**_NET2, "W": [[1.0, 0.0], [0.0, 1.0]]}),
    "huge-int-weight.json": json.dumps({**_NET2, "W": [10**400, 0, 0, 1]}),
    "mixed-boolean-W.json": json.dumps({**_NET2, "W": [1.0, True, 0, 1]}),
}


def _bad_inputs(tmp_path):
    for name, text in _BAD_INPUTS.items():
        path = tmp_path / name
        path.write_text(text)
        yield path
    yield tmp_path  # a directory, not a file


def test_extract_bad_input_file_is_a_usage_error(tmp_path, capsys):
    for path in _bad_inputs(tmp_path):
        code = main(["extract", "--input", str(path),
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "report.json").exists()


def test_extract_non_finite_delta_is_a_usage_error(tmp_path, capsys):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "2", "--seed", "0")
    for delta in ("nan", "inf", "-1", "1", "2"):
        capsys.readouterr()
        code = main(["extract", "--input", str(net), "--delta", delta,
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --delta")
    assert not (tmp_path / "report.json").exists()


def test_extract_audit_violation_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "2", "--seed", "0")
    audits = []
    real_as_oracle, real_extract = cli.as_oracle, cli.extract_two_layer

    def spy(audit):
        audits.append(audit)
        return real_as_oracle(audit)

    def peeking_extract(oracle, *args):
        audits[0].W  # a ground-truth read while the audit is armed
        return real_extract(oracle, *args)

    monkeypatch.setattr(cli, "as_oracle", spy)
    monkeypatch.setattr(cli, "extract_two_layer", peeking_extract)
    capsys.readouterr()
    code = main(["extract", "--input", str(net), "--out", str(tmp_path / "report.json")])
    assert code == cli.EXIT_AUDIT == 5
    assert capsys.readouterr().err.startswith("error: extraction read 1 ")
    assert not (tmp_path / "report.json").exists()


class _FailedSolve:
    status, message = 4, "numerical difficulties"


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-experiment", "--d", "4", "--d1", "24", "--trials", "50"],
        ["generate", "--depth", "3", "--d", "6", "--d1", "3", "--d2", "9"],
        ["bench", "--depth", "3", "--d-list", "3", "--d1-list", "2", "--d2-list", "6",
         "--seeds", "0"],
    ],
    ids=["bound-experiment", "generate-depth3", "bench-depth3"],
)
def test_solver_failure_has_its_own_exit_code(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("netpeel.orthant.linprog", lambda *args, **kwargs: _FailedSolve())
    # An unsure kernel sends every orthant problem it sees to the solver.
    monkeypatch.setattr("netpeel.orthant._vertex_margins",
                        lambda W, b: np.full(len(W), np.nan))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == cli.EXIT_SOLVER == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "negative-orthant LP: solver status 4 (numerical difficulties)" in err
    assert not out.exists()


_DEPTH2_ROUND_TRIP = """
import sys
import netpeel.cli
assert "scipy" not in sys.modules, "import"
net, report = sys.argv[1] + "/net.json", sys.argv[1] + "/report.json"
for argv in (["generate", "--d", "3", "--d1", "4", "--out", net],
             ["extract", "--input", net, "--out", report],
             ["verify", "--truth", net, "--candidate", report]):
    assert netpeel.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv[0]
assert netpeel.cli.main(["bound-experiment", "--d", "2", "--d1", "30"]) == 0
assert "scipy" not in sys.modules, "bound-experiment (2, 30)"
assert netpeel.cli.main(["bound-experiment", "--d", "3", "--d1", "18", "--trials", "200"]) == 0
assert "scipy" not in sys.modules, "bound-experiment (3, 18)"
assert netpeel.cli.main(["bound-experiment", "--d", "4", "--d1", "24", "--trials", "200"]) == 0
assert "scipy" in sys.modules, "bound-experiment (4, 24)"
"""


def test_depth2_commands_never_import_scipy(tmp_path):
    """Only an LP solve loads scipy: a depth-2 round trip never makes one, the
    screen and the kernel settle the README's default 100,000 trials at
    (2, 30), near-dependent rows included, and 200 at (3, 18), and at
    (4, 24) they leave 11 over-budget trials to HiGHS."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _DEPTH2_ROUND_TRIP, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


_DEPTH3_ROUND_TRIP = """
import sys
import netpeel.cli
net, report = sys.argv[1] + "/net.json", sys.argv[1] + "/report.json"
for argv in (["generate", "--depth", "3", "--d", "6", "--d1", "3", "--d2", "9",
              "--seed", "0", "--out", net],
             ["extract", "--input", net, "--out", report],
             ["verify", "--truth", net, "--candidate", report]):
    assert netpeel.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv[0]
"""


def test_depth3_round_trip_never_imports_scipy(tmp_path):
    """The kernel settles every dead-region decision of the (6, 3, 9) seed-0
    draw, so a depth-3 round trip makes no LP solve."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", _DEPTH3_ROUND_TRIP, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# A depth-2 unit whose finite weights overflow to inf at x > 0.
_OVERFLOWING = {"format": "netpeel-net", "depth": 2, "d": 1, "d1": 1,
                "W": [1e308], "b": [1e308], "u": [1]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extract_overflowing_network_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_OVERFLOWING))
    capsys.readouterr()
    code = main(["extract", "--input", str(path), "--out", str(tmp_path / "report.json")])
    assert code == 2
    assert "non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# -------------------------------------------------------------------- verify


def test_verify_file_against_itself(tmp_path, capsys):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "3", "--seed", "5")
    assert main(["verify", "--truth", str(net), "--candidate", str(net)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "0.000e+00" in out


def test_verify_flags_a_perturbed_copy(tmp_path):
    path = _generate(tmp_path, "net.json", "--d", "2", "--d1", "3", "--seed", "5")
    net = load_net(path)
    b = net.b.copy()
    b[0] += 1e-3
    perturbed = TwoLayerNet(net.W, b, net.s, net.skip)
    other = tmp_path / "perturbed.json"
    save_net(other, perturbed)
    code = main(["verify", "--truth", str(path), "--candidate", str(other),
                 "--tau", "1e-6"])
    assert code == 1


def test_verify_dimension_mismatch_is_a_usage_error(tmp_path):
    a = _generate(tmp_path, "a.json", "--d", "2", "--d1", "2", "--seed", "0")
    b = _generate(tmp_path, "b.json", "--d", "3", "--d1", "2", "--seed", "0")
    assert main(["verify", "--truth", str(a), "--candidate", str(b)]) == 2


def test_verify_bad_input_file_is_a_usage_error(tmp_path, capsys):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "2", "--seed", "0")
    capsys.readouterr()
    for path in _bad_inputs(tmp_path):
        for truth, candidate in ((path, net), (net, path)):
            code = main(["verify", "--truth", str(truth), "--candidate", str(candidate)])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")


def test_verify_needs_a_finite_box(tmp_path, capsys):
    net = _generate(tmp_path, "net.json", "--d", "2", "--d1", "2", "--seed", "0")
    for lo, hi in (("nan", "1"), ("0", "nan"), ("-inf", "1"), ("1", "1"), ("2", "1")):
        capsys.readouterr()
        code = main(["verify", "--truth", str(net), "--candidate", str(net),
                     f"--lo={lo}", f"--hi={hi}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_overflowing_network_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_OVERFLOWING))
    capsys.readouterr()
    code = main(["verify", "--truth", str(path), "--candidate", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: the first network evaluates")


# ------------------------------------------------------- bench and bound


def test_bench_writes_csv_and_fits(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--depth", "2", "--d-list", "2", "--d1-list", "2,3",
                 "--deltas", "1e-4", "--seeds", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert "fit: queries ~" in capsys.readouterr().out


def test_bench_drops_depth3_cells_with_one_first_layer_unit(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    grid = ["bench", "--depth", "3", "--d-list", "2", "--d2-list", "3",
            "--deltas", "1e-4", "--seeds", "0", "--out", str(out)]
    assert main([*grid, "--d1-list", "1"]) == 2
    assert "filter" in capsys.readouterr().err
    assert not out.exists()
    assert main([*grid, "--d1-list", "1,2"]) == 0
    header, *rows = out.read_text().strip().splitlines()
    d1 = header.split(",").index("d1")
    assert [row.split(",")[d1] for row in rows] == ["2"]


def test_bound_experiment_reports_and_saves(tmp_path, capsys):
    out = tmp_path / "bound.csv"
    code = main(["bound-experiment", "--d", "2", "--d1", "8",
                 "--trials", "200", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "bound" in capsys.readouterr().out


_BENCH_GRID = ["bench", "--d-list", "2", "--d1-list", "2", "--seeds", "0"]


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "0", "1", "2"])
def test_bench_deltas_must_be_positive_and_finite(tmp_path, capsys, value):
    out = tmp_path / "bench.csv"
    assert main([*_BENCH_GRID, f"--deltas={value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --deltas")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--d-list", "--d1-list", "--d2-list"])
def test_bench_widths_must_be_at_least_one(tmp_path, capsys, flag):
    out = tmp_path / "bench.csv"
    for value in ("0", "2,-1"):
        capsys.readouterr()
        assert main([*_BENCH_GRID, f"{flag}={value}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--seed", "-1", "--out", "net.json"],
        ["bench", "--d-list", "2", "--d1-list", "2", "--seeds", "0,-1", "--out", "b.csv"],
        ["bound-experiment", "--trials", "10", "--seed", "-1"],
    ],
    ids=["generate", "bench", "bound-experiment"],
)
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --seed")
    assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------- bad usage


def test_missing_required_flag_is_a_usage_error():
    assert main(["extract"]) == 2


def test_unknown_command_is_a_usage_error():
    assert main(["frobnicate"]) == 2


def test_the_cached_parser_keeps_no_state_between_calls(monkeypatch, tmp_path):
    """One parser serves every `main` call: each sees its own flags and the defaults."""
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: seen.append(args) or 0)
    files = ["verify", "--truth", "a.json", "--candidate", "b.json"]
    assert main([*files, "--seed", "5", "--tau", "0.5"]) == 0
    assert main(files) == 0
    assert [(a.seed, a.tau, a.samples) for a in seen] == [(5, 0.5, 10_000), (0, 1e-6, 10_000)]
    assert main(["verify", "--seed", "x"]) == 2
    out = tmp_path / "bound.csv"
    assert main(["bound-experiment", "--d1", "4", "--trials", "20", "--out", str(out)]) == 0
    assert out.exists()


def test_the_benchmark_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    """`perfbench/spans.py` wraps package names from outside the package, so a
    name it lists that the package drops would break `run.py --trace 1`."""
    path = Path(cli.__file__).resolve().parents[2] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    from netpeel.oracle.query import QueryOracle

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "netpeel" or name.startswith("netpeel.")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    query = QueryOracle.query
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, attr, _ in (*spans.TRACED, *spans.TRACED_LOCAL):
            assert getattr(sys.modules[name], attr) is not before[name][attr], (name, attr)
        assert QueryOracle.query is not query
        # Every base query must pass the class wrapper, or traced runs fail
        # `check_trace` while untraced ones pass.
        for net, extract, queries in (
            (generate_two_layer(4, 8, np.random.default_rng(0)),
             lambda o: extract_two_layer(o, 4, 1e-4, 512), 411),
            (generate_three_layer(4, 3, 9, np.random.default_rng(1)),
             lambda o: extract_three_layer(o, 1e-4), 966),
        ):
            oracle, q0 = as_oracle(net), tracer.base_queries
            got = extract(oracle)
            assert tracer.base_queries - q0 == oracle.count == got.total_queries == queries
    finally:
        tracer.uninstall()
    for name, mod in modules.items():
        now = vars(mod)
        assert all(now.get(key) is value for key, value in before[name].items()), name
    assert QueryOracle.query is query
