"""The three benchmark workloads: seeded inputs, timed items and output checks.

``build(workload, seed, workdir)`` generates every input of one pass from the
seed and returns the items in run order.  An item is a ``(name, run)`` pair;
``run()`` calls the public densecode API and returns an ``Outcome`` whose
``ok`` flag says whether the output passed its check.  Items look every
densecode function up as a module attribute at call time, so the tracer in
``tracing.py`` sees the calls once it has wrapped those attributes.

Tolerances come from the project's ladder and are never loosened here:
1e-6 for closed form against optimizer and for each hierarchy step, 1e-10 for
covariance certification and for the trace, Hermiticity and entropy of the
D=64 channel output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from densecode import capacity, channels, cli, displacement, linalg
from densecode.capacity import OptimizerConfig
from densecode.channels import CorrelationSpec, SinglePartyPauliSpec
from densecode.linalg import SubsystemLayout, random_density_matrix, random_unitary

# BENCHMARK.json gates scenarios and channels; hierarchy runs by hand (README.md).
WORKLOADS = ("scenarios", "hierarchy", "channels")

AGREEMENT_TOL = 1e-6
CERT_TOL = 1e-10

# Criterion 12's optimizer settings.  The base state and channel come from a
# fixed seed, and the benchmark seed only moves the input along a
# sender-local unitary orbit, which leaves every capacity of the hierarchy
# unchanged.
HIERARCHY_CFG = OptimizerConfig(restarts=3, max_iters=80, seed=42)
HIERARCHY_BASE_SEED = 12

# Inputs of the D=64 apply are fixed so that its output entropy can be
# compared with the value recorded in reference.json at the commit that
# added the benchmark.
APPLY64_SEED = 64
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Outcome:
    capacity_bits: float | None  # optimizer capacity, None for non-solve items
    dev: float                   # deviation checked against the item's tolerance
    ok: bool
    detail: str = ""


def _cli_item(config: dict, path: Path):
    path.write_text(json.dumps(config, indent=2))

    def run() -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["capacity", "--config", str(path), "--json"])
        if status != 0 and not buf.getvalue():
            return Outcome(None, math.inf, False, f"exit status {status}")
        row = json.loads(buf.getvalue())[0]
        dev = abs(row["optimizer_bits"] - row["closed_form_bits"])
        ok = status == 0 and row["agreement"] is True and dev <= AGREEMENT_TOL
        return Outcome(row["optimizer_bits"], dev, ok,
                       f"exit status {status}, agreement {row['agreement']}")

    return run


def _scenarios(seed: int, workdir: Path):
    """One CLI run per scenario family, default optimizer settings."""
    singles = [[[0.7, 0.1], [0.1, 0.1]], [[0.6, 0.2], [0.1, 0.1]]]
    configs = {
        "bell-correlated-local": {
            "scenario": "bell-correlated", "mode": "local",
            "state": {"dims": [2, 2]}, "channel": {"singles": singles, "mu": 0.5}},
        "bell-correlated-global": {
            "scenario": "bell-correlated", "mode": "global",
            "state": {"dims": [2, 2]}, "channel": {"singles": singles, "mu": 0.5}},
        "bell-diagonal-full": {
            "scenario": "bell-diagonal-full",
            "state": {"weights": [0.7, 0.1, 0.1, 0.1], "copies": 2},
            "channel": {"q": [0.8, 0.1, 0.05, 0.05]}},
        "ghz-full": {
            "scenario": "ghz-full", "mode": "local",
            "state": {"copies": 2}, "channel": {"q": [0.85, 0.05, 0.05, 0.05]}},
        "depolarizing-d3": {
            "scenario": "depolarizing", "state": {"d": 3, "copies": 1},
            "channel": {"p": 0.3}},
    }
    return [
        (name, _cli_item({**cfg, "seed": seed}, workdir / f"{name}.json"))
        for name, cfg in configs.items()
    ]


def _random_single(d: int, rng) -> SinglePartyPauliSpec:
    q = rng.random((d, d))
    return SinglePartyPauliSpec(d, q / q.sum())


def _random_mu(parties: int, rng) -> CorrelationSpec:
    mu = np.zeros((parties, parties))
    for j in range(parties):
        for l in range(j + 1, parties):
            mu[j, l] = mu[l, j] = rng.random()
    return CorrelationSpec(mu)


def _hierarchy(seed: int, workdir: Path, cfg: OptimizerConfig | None = None):
    """Criterion 12 on one seeded 8-dim state: local, global, CPTP env 2 and 1."""
    base_rng = np.random.default_rng(HIERARCHY_BASE_SEED)
    layout = SubsystemLayout([2, 2], 2)
    chan = channels.correlated_probs(
        [_random_single(2, base_rng) for _ in range(3)], _random_mu(3, base_rng)
    )
    rho0 = random_density_matrix(8, base_rng)
    rng = np.random.default_rng(seed)
    local_u = np.kron(np.kron(random_unitary(2, rng), random_unitary(2, rng)), np.eye(2))
    rho = local_u @ rho0 @ local_u.conj().T
    cfg = cfg or HIERARCHY_CFG
    found: dict[str, float] = {}

    def solve(name, below, call):
        def run() -> Outcome:
            value = call().capacity_bits
            found[name] = value
            if below is None:
                return Outcome(value, 0.0, True)
            if below not in found:
                return Outcome(value, math.inf, False, f"{below} solve missing")
            if name == "cptp-env1":
                dev = abs(value - found[below])
            else:
                dev = found[below] - value
            return Outcome(value, dev, dev <= AGREEMENT_TOL, f"against {below}")
        return run

    return [
        ("local", solve("local", None, lambda: capacity.capacity_covariant(
            rho, chan, layout, "local", cfg))),
        ("global", solve("global", "local", lambda: capacity.capacity_covariant(
            rho, chan, layout, "global", cfg))),
        ("cptp-env2", solve("cptp-env2", "global", lambda: capacity.capacity_nonunitary(
            rho, chan, layout, "global", env_dim=2, cfg=cfg))),
        ("cptp-env1", solve("cptp-env1", "global", lambda: capacity.capacity_nonunitary(
            rho, chan, layout, "global", env_dim=1, cfg=cfg))),
    ]


def apply64_inputs():
    """Fixed 6-party correlated qubit channel and a dense D=64 state."""
    rng = np.random.default_rng(APPLY64_SEED)
    singles = [_random_single(2, rng) for _ in range(6)]
    corr = _random_mu(6, rng)
    return singles, corr, SubsystemLayout([2] * 5, 2), random_density_matrix(64, rng)


def _channels(seed: int, workdir: Path):
    """Depolarizing CLI run, covariance certification at D=27, cold D=64 apply."""
    depol = {
        "scenario": "depolarizing", "seed": seed,
        "state": {"d": 2, "copies": 2}, "channel": {"p": 0.25},
    }

    rng = np.random.default_rng(seed)
    spec27 = channels.correlated_probs(
        [_random_single(3, rng) for _ in range(3)], _random_mu(3, rng)
    )
    layout27 = SubsystemLayout([3, 3], 3)

    def certify() -> Outcome:
        enc = displacement.local_encoding_set(layout27.sender_dims)
        dev = channels.verify_covariance(spec27, enc, layout27, trials=5, seed=seed)
        return Outcome(None, dev, dev <= CERT_TOL)

    singles64, corr64, layout64, rho64 = apply64_inputs()
    expected = json.loads(REFERENCE_FILE.read_text())["apply64_entropy_bits"]

    def apply64() -> Outcome:
        spec = channels.correlated_probs(singles64, corr64)
        out = channels.apply_pauli(spec, rho64, layout64)
        entropy = linalg.von_neumann_entropy(out)
        dev = max(
            abs(out.trace() - 1.0),
            float(np.abs(out - out.conj().T).max()),
            abs(entropy - expected),
        )
        return Outcome(None, dev, dev <= CERT_TOL, f"entropy {entropy!r}")

    # Item order matters: the CLI run goes first so it sees the allocator
    # state of a fresh process; see README.md.
    return [
        ("depolarizing-d2k2", _cli_item(depol, workdir / "depolarizing-d2k2.json")),
        ("covariance-d27", certify),
        ("apply-d64", apply64),
    ]


def build(workload: str, seed: int, workdir: Path):
    """Generate the inputs of one pass and return its items in run order."""
    builders = {"scenarios": _scenarios, "hierarchy": _hierarchy, "channels": _channels}
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[workload](seed, workdir)
