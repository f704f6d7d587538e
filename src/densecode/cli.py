"""Command-line front end: named scenario runner, parameter sweeps, and the
verification-suite driver with CSV/JSON emission.

Scenarios (JSON config, one document per run):

  bell-correlated     k Bell copies, Pauli noise on the sender slots only
  bell-diagonal-full  k Bell-diagonal copies, fully correlated qubit noise
  ghz-full            GHZ of 2k qubits, fully correlated qubit noise
  depolarizing        k copies of a Bell pair, uncorrelated depolarizing noise
  custom              explicit state/layout/channel, optimizer only

Every row reports the closed-form capacity where one exists, the optimizer
capacity when enabled, and whether the two agree within 1e-6.  All randomness
flows from the seed (default 42).  The CSV starts with a '# densecode-lab v1'
comment line and emits numbers at 17 significant digits so parsed values
round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from .capacity import (
    OptimizerConfig,
    capacity_covariant,
    closed_form_bd_fully_correlated,
    closed_form_bell_correlated,
    closed_form_depolarizing,
    closed_form_ghz_fully_correlated,
    depolarizing_invariance_check,
    lemma2_orthogonality_check,
)
from .channels import (
    CorrelationSpec,
    SinglePartyPauliSpec,
    channel_from_json,
    correlated_probs,
    depolarizing_probs,
    fully_correlated_probs,
    product_probs,
    verify_covariance,
)
from .displacement import local_encoding_set, twirl, verify_displacement_algebra
from .errors import ConfigError, DensecodeError, ParameterError, check_fields, json_field
from .linalg import (
    SubsystemLayout,
    check_power,
    random_hermitian,
    validate_density_matrix,
)
from .states import (
    assemble_product,
    bell_copies,
    bell_diagonal,
    bell_state,
    ghz_state,
)

CSV_HEADER = "# densecode-lab v1"
CSV_COLUMNS = (
    "scenario",
    "param_name",
    "param_value",
    "capacity_bits",
    "closed_form_bits",
    "optimizer_bits",
    "receiver_entropy_bits",
    "min_output_entropy_bits",
    "agreement",
)
AGREEMENT_TOL = 1e-6
# Each sweep point runs a whole scenario.
SWEEP_STEP_CAP = 10**5
SCENARIOS = (
    "bell-correlated",
    "bell-diagonal-full",
    "ghz-full",
    "depolarizing",
    "custom",
)
# The fields each block of a config reads: the document's, and by scenario
# its state's and its channel's (channel documents check their own).
CONFIG_FIELDS = ("scenario", "seed", "mode", "run_optimizer", "optimizer", "state", "channel")
STATE_FIELDS = {"bell-correlated": ("dims",), "bell-diagonal-full": ("weights", "copies"),
                "ghz-full": ("copies",), "depolarizing": ("d", "copies"),
                "custom": ("matrix", "layout")}
CHANNEL_FIELDS = {"bell-diagonal-full": ("q",), "ghz-full": ("q",), "depolarizing": ("p",)}


@dataclass
class ResultRow:
    scenario: str
    param_name: str = ""
    param_value: float | None = None
    capacity_bits: float = 0.0
    closed_form_bits: float | None = None
    optimizer_bits: float | None = None
    receiver_entropy_bits: float | None = None
    min_output_entropy_bits: float | None = None
    agreement: bool | None = None

    def passed(self) -> bool:
        return self.agreement is not False


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER, ",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    docs = []
    for row in rows:
        docs.append({f.name: getattr(row, f.name) for f in fields(ResultRow)})
    return json.dumps(docs, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _optimizer_config(cfg: dict, seed: int) -> OptimizerConfig:
    opt = json_field(cfg, "optimizer", dict, {})
    check_fields(opt, "optimizer", ("restarts", "max_iters"))
    try:
        return OptimizerConfig(
            restarts=json_field(opt, "optimizer.restarts", int, OptimizerConfig.restarts),
            max_iters=json_field(opt, "optimizer.max_iters", int, OptimizerConfig.max_iters),
            seed=seed,
        )
    except ParameterError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


def run_scenario(cfg: dict) -> list[ResultRow]:
    """Execute one scenario config and return its result rows."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config: expected an object, got {type(cfg).__name__}")
    scenario = json_field(cfg, "scenario", str)
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"scenario: unknown value {scenario!r}; expected one of {SCENARIOS}"
        )
    check_fields(cfg, "config", CONFIG_FIELDS)
    seed = json_field(cfg, "seed", int, OptimizerConfig.seed)
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    opt_cfg = _optimizer_config(cfg, seed)
    run_optimizer = json_field(cfg, "run_optimizer", bool, True)
    mode = json_field(cfg, "mode", str, "local")
    state_cfg = json_field(cfg, "state", dict, {})
    chan_cfg = json_field(cfg, "channel", dict, {})
    check_fields(state_cfg, "state", STATE_FIELDS[scenario])
    if scenario in CHANNEL_FIELDS:
        check_fields(chan_cfg, "channel", CHANNEL_FIELDS[scenario])

    if scenario == "bell-correlated":
        dims = json_field(state_cfg, "state.dims", tuple)
        if "joint" not in chan_cfg:
            # The correlated form's parties and d are the copies and their dim.
            check_fields(chan_cfg, "channel", ("singles", "mu", "acts_on"))
            chan_cfg = {**chan_cfg, "parties": len(dims), "d": dims[0]}
        rho, layout = bell_copies(dims)
        channel = channel_from_json(chan_cfg)
        closed = closed_form_bell_correlated(channel, dims)
    elif scenario == "bell-diagonal-full":
        weights = json_field(state_cfg, "state.weights", list)
        copies = json_field(state_cfg, "state.copies", int, 1)
        q = json_field(chan_cfg, "channel.q", list)
        single = bell_diagonal(weights)
        check_power(4, copies)
        rho, layout = assemble_product([single] * copies, [(2, 2)] * copies)
        acts_on = tuple(range(copies)) + (copies,) * copies
        channel = fully_correlated_probs(2 * copies, q).with_acts_on(acts_on)
        closed = closed_form_bd_fully_correlated(copies, weights)
    elif scenario == "ghz-full":
        k = json_field(state_cfg, "state.copies", int)
        parties = 2 * k
        rho = ghz_state(parties)
        layout = SubsystemLayout([2] * (parties - 1), 2)
        q = json_field(chan_cfg, "channel.q", list)
        channel = fully_correlated_probs(parties, q)
        closed = closed_form_ghz_fully_correlated(k)
    elif scenario == "depolarizing":
        d = json_field(state_cfg, "state.d", int, 2)
        copies = json_field(state_cfg, "state.copies", int, 1)
        p = json_field(chan_cfg, "channel.p", float)
        single = bell_state(d)
        check_power(d * d, copies)
        closed = closed_form_depolarizing(single, p, copies)
        rho, layout = assemble_product([single] * copies, [(d, d)] * copies)
        dep = depolarizing_probs(d, p)
        acts_on = tuple(range(copies)) + (copies,) * copies
        channel = product_probs([dep] * (2 * copies), acts_on)
    else:  # custom
        matrix = json_field(state_cfg, "state.matrix", dict)
        layout_cfg = json_field(state_cfg, "state.layout", dict)
        check_fields(matrix, "state.matrix", ("re", "im"))
        check_fields(layout_cfg, "state.layout", ("sender_dims", "receiver_dim"))
        re = np.asarray(json_field(matrix, "state.matrix.re", list), dtype=float)
        im = np.asarray(json_field(matrix, "state.matrix.im", list, 0 * re), dtype=float)
        if re.shape != im.shape:
            raise ConfigError("state.matrix: re and im shapes differ")
        layout = SubsystemLayout(
            json_field(layout_cfg, "state.layout.sender_dims", tuple),
            json_field(layout_cfg, "state.layout.receiver_dim", int),
        )
        rho = validate_density_matrix(re + 1j * im, layout.total_dim)
        channel = channel_from_json(chan_cfg)
        closed = None

    row = ResultRow(scenario=scenario, closed_form_bits=closed)
    if run_optimizer:
        report = capacity_covariant(rho, channel, layout, mode, opt_cfg)
        row.optimizer_bits = report.capacity_bits
        row.receiver_entropy_bits = report.receiver_entropy_bits
        row.min_output_entropy_bits = report.min_output_entropy_bits
    if closed is not None and row.optimizer_bits is not None:
        row.agreement = abs(closed - row.optimizer_bits) <= AGREEMENT_TOL
    row.capacity_bits = closed if closed is not None else row.optimizer_bits
    if row.capacity_bits is None:
        raise ConfigError(
            "config: run_optimizer=false needs a scenario with a closed form"
        )
    return [row]


def _set_path(cfg: dict, path: str, value: float):
    """Set the field at the dotted ``path``; an array entry's key is its index."""
    *keys, leaf = path.split(".")
    node = cfg
    try:
        for key in keys:
            node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
        node[int(leaf) if isinstance(node, list) else leaf] = value
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"sweep: cannot set {path!r} in this config") from exc


def run_sweep(cfg: dict, param: str, start: float, stop: float, steps: int):
    """Run the scenario once per sweep point, in sweep order."""
    if steps < 1:
        raise ConfigError("sweep: steps must be >= 1")
    if steps > SWEEP_STEP_CAP:
        raise ConfigError(f"sweep: steps {steps} exceeds cap {SWEEP_STEP_CAP}")
    values = np.linspace(start, stop, steps)
    rows: list[ResultRow] = []
    for value in values:
        point = json.loads(json.dumps(cfg))
        _set_path(point, param, float(value))
        for row in run_scenario(point):
            row.param_name = param
            row.param_value = float(value)
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyCheck:
    suite: str
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _verify_algebra(seed: int) -> list[VerifyCheck]:
    checks = []
    for d in (2, 3, 5):
        report = verify_displacement_algebra(d)
        checks.append(
            VerifyCheck("algebra", f"d={d} exhaustive identities",
                        report.max_deviation, 1e-12)
        )
    return checks


def _verify_twirl(seed: int) -> list[VerifyCheck]:
    checks = []
    for d in (2, 3):
        rng = np.random.default_rng((seed, d))
        enc = local_encoding_set([d])
        worst = 0.0
        for _ in range(50):
            x = random_hermitian(d, rng)
            dev = np.abs(twirl(enc, x) - np.trace(x) * np.eye(d) / d).max()
            worst = max(worst, float(dev))
        checks.append(VerifyCheck("twirl", f"d={d} 50 random operators", worst, 1e-10))
    return checks


def _verify_covariance(seed: int) -> list[VerifyCheck]:
    rng = np.random.default_rng((seed, 99))
    cases = []

    def random_single(d):
        q = rng.random((d, d))
        return SinglePartyPauliSpec(d, q / q.sum())

    for d in (2, 3):
        singles = [random_single(d), random_single(d)]
        spec = correlated_probs(singles, CorrelationSpec.uniform(2, 0.7))
        cases.append((f"correlated mu=0.7 k=1 d={d}", spec, SubsystemLayout([d], d)))
    singles3 = [random_single(2) for _ in range(3)]
    cases.append((
        "correlated mu=0.7 k=2 d=2",
        correlated_probs(singles3, CorrelationSpec.uniform(3, 0.7)),
        SubsystemLayout([2, 2], 2),
    ))
    q4 = rng.random(4)
    cases.append((
        "fully correlated k=2 d=2",
        fully_correlated_probs(3, q4 / q4.sum()),
        SubsystemLayout([2, 2], 2),
    ))
    for d in (2, 3):
        dep = depolarizing_probs(d, 0.4)
        cases.append((
            f"depolarizing p=0.4 k=1 d={d}",
            product_probs([dep, dep]),
            SubsystemLayout([d], d),
        ))

    checks = []
    for name, spec, layout in cases:
        enc = local_encoding_set(layout.sender_dims)
        dev = verify_covariance(spec, enc, layout, trials=20, seed=seed)
        checks.append(VerifyCheck("covariance", name, float(dev), 1e-10))
    return checks


def _verify_lemma2(seed: int) -> list[VerifyCheck]:
    report = lemma2_orthogonality_check((2, 2), seed=seed)
    return [
        VerifyCheck("lemma2", "d=(2,2) cross products over all label pairs",
                    report.max_cross_overlap, 1e-10),
        VerifyCheck("lemma2", "d=(2,2) same-label purity",
                    report.max_purity_error, 1e-12),
    ]


def _verify_depol_invariance(seed: int) -> list[VerifyCheck]:
    checks = []
    for d in (2, 3):
        for p in (0.1, 0.3, 0.5):
            dev = depolarizing_invariance_check(bell_state(d), p, trials=20,
                                                seed=(seed + 1000 * d))
            checks.append(
                VerifyCheck("depol-invariance", f"Bell d={d} p={p} 20 unitaries",
                            float(dev), 1e-9)
            )
    return checks


_SUITE_RUNNERS = {
    "algebra": _verify_algebra,
    "covariance": _verify_covariance,
    "lemma2": _verify_lemma2,
    "twirl": _verify_twirl,
    "depol-invariance": _verify_depol_invariance,
}
VERIFY_SUITES = (*_SUITE_RUNNERS, "all")


def run_verify(suite: str, seed: int = 42, out=None) -> int:
    """Run a verification suite; returns a nonzero exit status on failure."""
    if out is None:
        out = sys.stdout
    if suite not in VERIFY_SUITES:
        raise ConfigError(f"suite: unknown value {suite!r}; expected {VERIFY_SUITES}")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    names = list(_SUITE_RUNNERS) if suite == "all" else [suite]
    checks: list[VerifyCheck] = []
    for name in names:
        checks.extend(_SUITE_RUNNERS[name](seed))
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        if not check.passed:
            failures += 1
        print(
            f"[{check.suite}] {check.name}: max deviation {check.deviation:.3e} "
            f"(tol {check.tolerance:.0e}) {status}",
            file=out,
        )
    print(
        f"verify summary: {len(checks) - failures}/{len(checks)} checks passed",
        file=out,
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc


def _emit(rows, out_path: str | None, as_json: bool) -> None:
    """Rows to stdout, then to ``out_path``; an unwritable one is a ConfigError."""
    csv_text = rows_to_csv(rows)
    json_text = rows_to_json(rows)
    sys.stdout.write(json_text if as_json else csv_text)
    if out_path:
        text = json_text if out_path.endswith(".json") else csv_text
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"{out_path}: {exc.strerror}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densecode",
        description="Superdense-coding capacities under correlated Pauli noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rows = argparse.ArgumentParser(add_help=False)  # options of both row commands
    rows.add_argument("--config", required=True, help="scenario JSON file")
    rows.add_argument("--out", help="output file (.csv or .json)")
    rows.add_argument("--json", action="store_true", help="print JSON instead of CSV")
    sub.add_parser("capacity", parents=[rows], help="run one scenario config")

    sweep = sub.add_parser("sweep", parents=[rows], help="sweep one scalar config field")
    sweep.add_argument("--param", required=True, help="dotted path, e.g. channel.p")
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    verify.add_argument("--seed", type=int, default=42)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.suite, args.seed)
        cfg = _load_config(args.config)
        rows = (run_scenario(cfg) if args.command == "capacity" else
                run_sweep(cfg, args.param, args.start, args.stop, args.steps))
        _emit(rows, args.out, args.json)
        return 0 if all(r.passed() for r in rows) else 1
    except DensecodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
