"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Everything here goes through the public CLI or API exactly the
way a user would drive it.
"""

import json
import math
import statistics
from fractions import Fraction

import pytest

from memnet import cli
from memnet.bounds import vc_upper_bits
from memnet.datagen import (random_dataset, random_regression_labels,
                            random_separated_points, write_csv)
from memnet.gadgets import oracle_bits, oracle_distance, oracle_indicator
from memnet.pipeline import assemble_sqrt, regression_wrap
from memnet.variants import assemble_bounded_bits, assemble_bounded_depth

WIDTH_CEILING = 12  # documented slack s = 0


def _corpus_specs():
    """Fifty dataset recipes spanning the required N, d, C grid."""
    ns = [1, 2, 16, 64, 256]
    dims = [1, 2, 3]
    classes = [2, 4, 16]
    specs = []
    for i in range(50):
        n = ns[i % 5]
        d = dims[i % 3]
        c = classes[i % 3 if n > 1 else 0] if n > 1 else 2
        kind = "integer"
        if i % 5 == 3 and n <= 64:
            kind = "dyadic"
        if i % 7 == 5 and n <= 64:
            kind = "decimal"
        specs.append((n, d, min(c, max(2, n)), kind, 100 + i))
    return specs


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Build + exact-verify all fifty datasets through the CLI."""
    root = tmp_path_factory.mktemp("corpus")
    results = []
    for idx, (n, d, c, kind, seed) in enumerate(_corpus_specs()):
        ds = random_dataset(n, d, c, seed=seed, coord_kind=kind)
        data = root / f"data_{idx}.csv"
        write_csv(data, ds.points, ds.labels)
        net = root / f"net_{idx}.json"
        report = root / f"report_{idx}.json"
        build_rc = cli.main(["build", "--mode", "sqrt", "--in", str(data),
                             "--out", str(net), "--report", str(report),
                             "--seed", str(seed)])
        verify_rc = cli.main(["verify", "--net", str(net), "--in", str(data),
                              "--precision", "exact"])
        results.append({
            "n": n, "d": d, "c": c, "kind": kind,
            "build_rc": build_rc, "verify_rc": verify_rc,
            "report": json.loads(report.read_text()),
            "net_path": str(net), "data_path": str(data),
        })
    return results


@pytest.fixture(scope="module")
def n256(tmp_path_factory):
    """One N=256 dataset shared by the variant sweeps and the float check."""
    root = tmp_path_factory.mktemp("n256")
    ds = random_dataset(256, 2, 4, seed=3)
    data = root / "d256.csv"
    write_csv(data, ds.points, ds.labels)
    net = root / "n256.json"
    rc = cli.main(["build", "--mode", "sqrt", "--in", str(data),
                   "--out", str(net), "--seed", "3"])
    assert rc == 0
    return {"ds": ds, "data": str(data), "net": str(net)}


def test_criterion_1_exact_memorization(corpus):
    failures = [(r["n"], r["d"], r["c"], r["kind"])
                for r in corpus if r["build_rc"] != 0 or r["verify_rc"] != 0]
    assert not failures, f"builds or verifications failed: {failures}"
    assert len(corpus) == 50
    assert {r["n"] for r in corpus} == {1, 2, 16, 64, 256}
    print("\nACCEPTANCE 1 exact-memorization: PASS "
          f"(50/50 datasets built and verified exactly)")


def test_criterion_2_width_claim(corpus):
    widths = [r["report"]["realized"]["width"] for r in corpus]
    assert all(w <= WIDTH_CEILING for w in widths), widths
    assert all(r["report"]["passes"]["width"] for r in corpus)
    # the audit must fail a build that exceeded the ceiling
    from memnet.bounds import audit
    from memnet.netir import load_net
    from memnet.pipeline import BuildInfo, load_dataset
    sample = corpus[2]
    net, builder = load_net(sample["net_path"])
    info = BuildInfo.from_json(builder)
    report = audit(net, load_dataset(sample["data_path"]), info)
    assert report.passes["width"]
    print(f"\nACCEPTANCE 2 width<=12+s (s=0): PASS (max realized width "
          f"{max(widths)})")


def test_criterion_3_parameter_scaling():
    # R and C polynomial in N: integer coords spread ~4N, C fixed
    params = {}
    for n in (16, 64, 256, 1024):
        ds = random_dataset(n, 1, 16, seed=11)
        _, report = assemble_sqrt(ds, seed=11)
        assert report.memorized
        params[n] = report.realized.params
    xs = [math.log(n) for n in params]
    ys = [math.log(p) for p in params.values()]
    xb, yb = statistics.mean(xs), statistics.mean(ys)
    slope = sum((x - xb) * (y - yb) for x, y in zip(xs, ys)) / \
        sum((x - xb) ** 2 for x in xs)
    assert 0.45 <= slope <= 0.65, f"fitted exponent {slope:.3f}"
    print(f"\nACCEPTANCE 3 scaling-exponent in [0.45,0.65]: PASS "
          f"(fitted {slope:.3f}, params {params})")


def test_criterion_4_exhaustive_gadget_oracles():
    bits = oracle_bits(10)
    assert bits["pass"] and not bits["mismatches"], bits["mismatches"][:3]
    ind = oracle_indicator(pairs=((2, 5), (0, 1), (7, 19), (1, 30)))
    assert ind["pass"], ind["mismatches"][:3]
    dist = oracle_distance(y_values=(0, 1, 3, 10, 25))
    assert dist["pass"], dist["mismatches"][:3]
    total = bits["checks"] + ind["checks"] + dist["checks"]
    print(f"\nACCEPTANCE 4 exhaustive-gadget-oracles: PASS "
          f"({total} checks, zero mismatches)")


def test_criterion_5_bounded_depth(n256):
    ds = n256["ds"]
    width_constant = 0.0
    prev_depth = 0
    reports = {}
    for L in (2, 4, 8, 16):
        _, report = assemble_bounded_depth(ds, L, seed=3)
        assert report.memorized, f"L={L}"
        subsets = math.ceil(256 / L ** 2)
        width_constant = max(width_constant, report.realized.width / subsets)
        assert report.realized.width <= WIDTH_CEILING * subsets
        assert report.realized.depth >= prev_depth  # nondecreasing in L
        prev_depth = report.realized.depth
        reports[L] = report.realized
    print(f"\nACCEPTANCE 5 bounded-depth: PASS (width <= c*ceil(N/L^2) with "
          f"c={width_constant:.1f}; depths "
          f"{[reports[L].depth for L in (2, 4, 8, 16)]})")


def test_criterion_6_bounded_bits(n256):
    ds = n256["ds"]
    prev_bits = 0
    prev_depth = math.inf
    bit_constant = 0.0
    seen = {}
    for B in (2, 4, 8, 16):
        _, report = assemble_bounded_bits(ds, B, seed=3)
        assert report.memorized, f"B={B}"
        ebits = report.effective_bits
        assert ebits >= prev_bits  # nondecreasing in B
        assert report.realized.depth <= prev_depth  # nonincreasing in B
        prev_bits, prev_depth = ebits, report.realized.depth
        log_r = math.log2(max(2.0, float(Fraction(report.info.R_realized))))
        bit_constant = max(bit_constant,
                           ebits / ((B / math.sqrt(math.log2(B))) * log_r)
                           if B > 2 else ebits / (B * log_r))
        seen[B] = (ebits, report.realized.depth)
    print(f"\nACCEPTANCE 6 bounded-bits: PASS (bits {seen}; "
          f"bits <= c*(B/sqrt(log B))*log R with c={bit_constant:.2f})")


def test_criterion_7_bit_complexity_necessity(corpus, n256, capsys):
    kappas = []
    for r in corpus:
        real = r["report"]["realized"]
        n = r["report"]["builder"]["N"]
        ebits = r["report"]["effective_bits"]
        bound = vc_upper_bits(max(1, real["params"]), max(1, ebits))
        kappa = n / bound
        assert n <= kappa * bound + 1e-9
        kappas.append(kappa)
    rc_exact = cli.main(["verify", "--net", n256["net"], "--in", n256["data"],
                         "--precision", "exact"])
    rc_float = cli.main(["verify", "--net", n256["net"], "--in", n256["data"],
                         "--precision", "float64"])
    out = capsys.readouterr().out
    event = json.loads(out.splitlines()[-1])
    assert rc_exact == 0 and rc_float == 0
    assert event["max_abs_error"] > 0, "float64 should collapse on ~sqrt(N)-bit weights"
    print(f"\nACCEPTANCE 7 bit-complexity-necessity: PASS (max kappa "
          f"{max(kappas):.3f}; float64 max error {event['max_abs_error']}, "
          f"exact verification green)")


def test_criterion_8_regression_wrapper():
    pts = random_separated_points(64, 2, seed=21)
    labels = random_regression_labels(64, seed=21)
    params = {}
    for eps in (Fraction(1, 4), Fraction(1, 16)):
        net, report = regression_wrap(pts, labels, eps,
                                      seed=21, lo=0, hi=1)
        worst = Fraction(report.info.extra["max_abs_error"])
        assert worst <= eps / 2, f"eps={eps}: max error {worst}"
        assert report.memorized and report.passed
        params[eps] = report.realized.params
    delta_params = params[Fraction(1, 16)] - params[Fraction(1, 4)]
    delta_log = math.log2(16) - math.log2(4)
    growth = delta_params / delta_log
    assert delta_params > 0
    print(f"\nACCEPTANCE 8 regression-wrapper: PASS (errors within eps/2; "
          f"param growth {growth:.1f} per doubling of log(1/eps))")


def test_criterion_9_determinism(tmp_path):
    ds = random_dataset(64, 2, 4, seed=17)
    data = tmp_path / "d.csv"
    write_csv(data, ds.points, ds.labels)
    blobs = []
    for tag in ("a", "b"):
        net = tmp_path / f"net_{tag}.json"
        rep = tmp_path / f"rep_{tag}.json"
        rc = cli.main(["build", "--mode", "sqrt", "--in", str(data),
                       "--out", str(net), "--report", str(rep),
                       "--seed", "17"])
        assert rc == 0
        blobs.append((net.read_bytes(), rep.read_bytes()))
    assert blobs[0] == blobs[1]
    print("\nACCEPTANCE 9 determinism: PASS (byte-identical network and "
          "report files)")
