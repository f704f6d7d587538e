"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Criteria with stated runtime budgets assert them.
"""

import math
import subprocess
import sys
import time

import numpy as np

from densecode.capacity import (
    OptimizerConfig,
    capacity_covariant,
    capacity_nonunitary,
    closed_form_bd_fully_correlated,
    closed_form_bell_correlated,
    closed_form_depolarizing,
    closed_form_ghz_fully_correlated,
    depolarizing_invariance_check,
    lemma2_orthogonality_check,
)
from densecode.channels import (
    CorrelationSpec,
    SinglePartyPauliSpec,
    apply_pauli,
    correlated_probs,
    depolarizing_probs,
    fully_correlated_probs,
    product_probs,
    verify_covariance,
)
from densecode.displacement import local_encoding_set, twirl, verify_displacement_algebra
from densecode.linalg import (
    SubsystemLayout,
    random_density_matrix,
    von_neumann_entropy,
)
from densecode.states import (
    assemble_product,
    bell_copies,
    bell_diagonal,
    bell_state,
    ghz_state,
)
from oracles import attaining_ensemble, holevo

H_FROZEN = 1.8464393446710154      # Shannon entropy of (0.4, 0.3, 0.2, 0.1)
CAP_FROZEN = 0.15356065532898455   # 2 - H_FROZEN


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_single(d, rng):
    q = rng.random((d, d))
    return SinglePartyPauliSpec(2, q / q.sum()) if d == 2 else SinglePartyPauliSpec(d, q / q.sum())


def _sigma_order(table):
    return [table[0, 0], table[1, 0], table[1, 1], table[0, 1]]


def test_criterion_01_displacement_algebra():
    started = time.perf_counter()
    worst = max(verify_displacement_algebra(d).max_deviation for d in (2, 3, 5))
    elapsed = time.perf_counter() - started
    _report(
        1, "displacement algebra d in {2,3,5}",
        worst <= 1e-12 and elapsed < 1.0,
        f"max dev {worst:.3e} <= 1e-12, runtime {elapsed:.2f}s < 1s",
    )


def test_criterion_02_twirl_identity():
    worst = 0.0
    for d in (2, 3):
        rng = np.random.default_rng((42, d))
        enc = local_encoding_set([d])
        for _ in range(50):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            dev = np.abs(twirl(enc, x) - np.trace(x) * np.eye(d) / d).max()
            worst = max(worst, float(dev))
    _report(2, "twirl projects onto identity", worst <= 1e-10,
            f"max dev {worst:.3e} <= 1e-10 over 50 operators, d in {{2,3}}")


def test_criterion_03_correlated_tensor():
    rng = np.random.default_rng(42)
    worst_norm = worst_prod = worst_full = worst_bi = 0.0
    for parties in (2, 3):
        for _ in range(100):
            singles = [_random_single(2, rng) for _ in range(parties)]
            mu = np.zeros((parties, parties))
            for j in range(parties):
                for l in range(j + 1, parties):
                    mu[j, l] = mu[l, j] = rng.random()
            spec = correlated_probs(singles, CorrelationSpec(mu))
            worst_norm = max(worst_norm, abs(spec.joint.sum() - 1.0))
            assert spec.joint.min() >= 0

            at_zero = correlated_probs(singles, CorrelationSpec.uniform(parties, 0.0))
            prod = np.array(1.0)
            for s in singles:
                prod = np.multiply.outer(prod, s.q.ravel())
            worst_prod = max(worst_prod, np.abs(at_zero.joint - prod).max())

            at_one = correlated_probs(singles, CorrelationSpec.uniform(parties, 1.0))
            full = fully_correlated_probs(parties, _sigma_order(singles[0].q))
            worst_full = max(worst_full, np.abs(at_one.joint - full.joint).max())

            if parties == 2:
                m = float(mu[0, 1])
                manual = (1 - m) * np.multiply.outer(
                    singles[0].q.ravel(), singles[1].q.ravel()
                ) + m * np.diag(singles[0].q.ravel())
                worst_bi = max(worst_bi, np.abs(spec.joint - manual).max())
    ok = (
        worst_norm <= 1e-12
        and worst_prod <= 1e-14
        and worst_full <= 1e-14
        and worst_bi <= 1e-15
    )
    _report(3, "correlated probability tensor", ok,
            f"norm dev {worst_norm:.1e}, mu=0 dev {worst_prod:.1e}, "
            f"mu=1 dev {worst_full:.1e}, bipartite dev {worst_bi:.1e}")


def criterion_04_channels():
    """(name, channel, layout) of criterion 4's covariant channel families."""
    rng = np.random.default_rng(42)
    cases = []
    for d in (2, 3):
        for k in (1, 2):
            parties = k + 1
            singles = [_random_single(d, rng) for _ in range(parties)]
            mu = rng.random()
            cases.append((
                f"correlated d={d} k={k}",
                correlated_probs(singles, CorrelationSpec.uniform(parties, mu)),
                SubsystemLayout([d] * k, d),
            ))
            dep = depolarizing_probs(d, float(rng.random()))
            cases.append((
                f"depolarizing d={d} k={k}",
                product_probs([dep] * parties),
                SubsystemLayout([d] * k, d),
            ))
    for k in (1, 2):
        q = rng.random(4)
        cases.append((
            f"fully-correlated d=2 k={k}",
            fully_correlated_probs(k + 1, q / q.sum()),
            SubsystemLayout([2] * k, 2),
        ))
    return cases


def test_criterion_04_covariance_certification():
    cases = criterion_04_channels()
    worst = 0.0
    for name, spec, layout in cases:
        enc = local_encoding_set(layout.sender_dims)
        dev = verify_covariance(spec, enc, layout, trials=20, seed=42)
        worst = max(worst, float(dev))
    _report(4, "covariance certification", worst <= 1e-10,
            f"max dev {worst:.3e} <= 1e-10 over {len(cases)} channels, 20 states each")


def test_criterion_05_noiseless_bell_capacity():
    worst_cap = worst_chi = 0.0
    for d in (2, 3):
        layout = SubsystemLayout([d], d)
        chan = product_probs([depolarizing_probs(d, 0.0)] * 2)
        cfg = OptimizerConfig(restarts=4, seed=42)
        report = capacity_covariant(bell_state(d), chan, layout, "local", cfg)
        worst_cap = max(worst_cap, abs(report.capacity_bits - math.log2(d * d)))
        chi = holevo(attaining_ensemble(np.eye(d), local_encoding_set([d])),
                     chan, bell_state(d), layout)
        worst_chi = max(worst_chi, abs(chi - math.log2(d * d)))
    _report(5, "noiseless Bell capacity", worst_cap <= 1e-6 and worst_chi <= 1e-9,
            f"capacity dev {worst_cap:.3e} <= 1e-6, holevo dev {worst_chi:.3e} <= 1e-9")


def test_criterion_06_bell_correlated_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    rho, layout = bell_copies([2, 2])
    enc = local_encoding_set([2, 2])
    cfg = OptimizerConfig(restarts=16, seed=42)
    worst_holevo = worst_opt = 0.0
    for mu in (0.0, 0.5, 1.0):
        singles = [_random_single(2, rng) for _ in range(2)]
        chan = correlated_probs(singles, CorrelationSpec.uniform(2, mu))
        closed = closed_form_bell_correlated(chan, [2, 2])
        chi = holevo(attaining_ensemble(np.eye(4), enc), chan, rho, layout)
        worst_holevo = max(worst_holevo, abs(chi - closed))
        report = capacity_covariant(rho, chan, layout, "local", cfg)
        worst_opt = max(worst_opt, abs(report.capacity_bits - closed))
    elapsed = time.perf_counter() - started
    ok = worst_holevo <= 1e-8 and worst_opt <= 1e-5 and elapsed < 120.0
    _report(6, "Bell copies + correlated noise equivalence", ok,
            f"holevo dev {worst_holevo:.3e} <= 1e-8, optimizer dev {worst_opt:.3e} "
            f"<= 1e-5, runtime {elapsed:.1f}s < 120s")


def test_criterion_07_bell_diagonal_fully_correlated():
    rng = np.random.default_rng(42)
    weights = (0.4, 0.3, 0.2, 0.1)
    closed1 = closed_form_bd_fully_correlated(1, weights)
    frozen_ok = abs(closed1 - CAP_FROZEN) <= 1e-9

    q = rng.random(4)
    q /= q.sum()
    layout = SubsystemLayout([2], 2)
    chan = fully_correlated_probs(2, q)
    cfg = OptimizerConfig(restarts=4, seed=42)
    report = capacity_covariant(bell_diagonal(weights), chan, layout, "local", cfg)
    chi = holevo(
        attaining_ensemble(report.encoder_at_min, local_encoding_set([2])),
        chan, bell_diagonal(weights), layout,
    )
    single_ok = abs(report.capacity_bits - closed1) <= 1e-5 and abs(chi - closed1) <= 1e-5

    rho2, layout2 = assemble_product([bell_diagonal(weights)] * 2, [(2, 2)] * 2)
    chan2 = fully_correlated_probs(4, q).with_acts_on((0, 1, 2, 2))
    report2 = capacity_covariant(rho2, chan2, layout2, "local", cfg)
    additive_ok = abs(report2.capacity_bits - 2 * closed1) <= 1e-5
    _report(7, "Bell-diagonal + fully correlated closed form",
            frozen_ok and single_ok and additive_ok,
            f"closed {closed1:.6f} vs frozen {CAP_FROZEN:.6f}, optimizer dev "
            f"{abs(report.capacity_bits - closed1):.3e}, k=2 dev "
            f"{abs(report2.capacity_bits - 2 * closed1):.3e} <= 1e-5")


def test_criterion_08_ghz_fully_correlated():
    rng = np.random.default_rng(42)
    q = rng.random(4)
    q /= q.sum()
    layout = SubsystemLayout([2, 2, 2], 2)
    chan = fully_correlated_probs(4, q)
    ghz = ghz_state(4)
    entropy_at_identity = von_neumann_entropy(apply_pauli(chan, ghz, layout))
    cfg = OptimizerConfig(restarts=4, seed=42)
    report = capacity_covariant(ghz, chan, layout, "local", cfg)
    closed = closed_form_ghz_fully_correlated(2)
    ok = (
        abs(report.capacity_bits - 4.0) <= 1e-6
        and closed == 4.0
        and entropy_at_identity <= 1e-9
    )
    _report(8, "GHZ + fully correlated channel", ok,
            f"capacity {report.capacity_bits:.8f} within 1e-6 of 4, identity output "
            f"entropy {entropy_at_identity:.2e} <= 1e-9")


def test_criterion_09_depolarizing_invariance():
    worst = 0.0
    for d in (2, 3):
        for p in (0.1, 0.3, 0.5):
            dev = depolarizing_invariance_check(bell_state(d), p, trials=20,
                                                seed=42 + d)
            worst = max(worst, float(dev))
    _report(9, "depolarizing local-unitary invariance", worst <= 1e-9,
            f"max entropy dev {worst:.3e} <= 1e-9 over 20 unitaries per case")


def test_criterion_10_depolarizing_capacity():
    layout = SubsystemLayout([2], 2)
    cfg = OptimizerConfig(restarts=4, seed=42)
    worst = 0.0
    for p in (0.0, 0.25, 0.5, 1.0):
        closed = closed_form_depolarizing(bell_state(2), p, 1)
        chan = product_probs([depolarizing_probs(2, p)] * 2)
        report = capacity_covariant(bell_state(2), chan, layout, "local", cfg)
        worst = max(worst, abs(report.capacity_bits - closed))
    zero_at_full = abs(closed_form_depolarizing(bell_state(2), 1.0, 1))
    doubling = abs(
        closed_form_depolarizing(bell_state(2), 0.25, 2)
        - 2 * closed_form_depolarizing(bell_state(2), 0.25, 1)
    )
    ok = worst <= 1e-5 and zero_at_full <= 1e-9 and doubling <= 1e-9
    _report(10, "depolarizing capacity formula", ok,
            f"optimizer dev {worst:.3e} <= 1e-5, p=1 capacity {zero_at_full:.1e} "
            f"<= 1e-9, k=2 doubling dev {doubling:.1e} <= 1e-9")


def test_criterion_11_lemma2_orthogonality():
    report = lemma2_orthogonality_check((2, 2), seed=42)
    ok = report.max_cross_overlap <= 1e-10 and report.max_purity_error <= 1e-12
    _report(11, "Lemma 2 orthogonality", ok,
            f"max cross product {report.max_cross_overlap:.3e} <= 1e-10, "
            f"purity dev {report.max_purity_error:.3e} <= 1e-12 over all label pairs")


def test_criterion_12_encoding_hierarchy():
    rng = np.random.default_rng(42)
    layout = SubsystemLayout([2, 2], 2)
    singles = [_random_single(2, rng) for _ in range(3)]
    mu = np.zeros((3, 3))
    for j in range(3):
        for l in range(j + 1, 3):
            mu[j, l] = mu[l, j] = rng.random()
    chan = correlated_probs(singles, CorrelationSpec(mu))
    cfg = OptimizerConfig(restarts=3, max_iters=80, seed=42)
    worst_gap_lg = worst_gap_gn = worst_env1 = -np.inf
    for _ in range(10):
        rho = random_density_matrix(8, rng)
        local = capacity_covariant(rho, chan, layout, "local", cfg)
        global_ = capacity_covariant(rho, chan, layout, "global", cfg)
        non_unit = capacity_nonunitary(rho, chan, layout, "global", env_dim=2, cfg=cfg)
        env1 = capacity_nonunitary(rho, chan, layout, "global", env_dim=1, cfg=cfg)
        worst_gap_lg = max(worst_gap_lg, local.capacity_bits - global_.capacity_bits)
        worst_gap_gn = max(worst_gap_gn, global_.capacity_bits - non_unit.capacity_bits)
        worst_env1 = max(worst_env1, abs(env1.capacity_bits - global_.capacity_bits))
    ok = worst_gap_lg <= 1e-6 and worst_gap_gn <= 1e-6 and worst_env1 <= 1e-5
    _report(12, "encoding hierarchy on random states", ok,
            f"local-global gap {worst_gap_lg:.2e} <= 1e-6, global-nonunitary gap "
            f"{worst_gap_gn:.2e} <= 1e-6, env=1 dev {worst_env1:.2e} <= 1e-5")


def test_criterion_13_verify_determinism(cli_env):
    cmd = [sys.executable, "-m", "densecode", "verify", "--suite", "all",
           "--seed", "42"]
    env = cli_env()
    first = subprocess.run(cmd, capture_output=True, check=True, env=env)
    second = subprocess.run(cmd, capture_output=True, check=True, env=env)
    ok = first.stdout == second.stdout and first.returncode == 0
    _report(13, "verify --suite all determinism", ok,
            f"{len(first.stdout)} bytes identical across runs, exit 0")
