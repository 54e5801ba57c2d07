"""Command-line front end.

Every subcommand is deterministic given the config and the root seed:
instance seeds are derived arithmetically from the root seed, so reruns
produce identical output except for the timestamp field in the JSON
envelope. Exit codes: 0 success, 1 mathematical-property violation,
2 resource or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ._rng import stream_generator
from .bounds import verify_instance, walsh_counterexample_report
from .dpp import (ENUMERATION_CAP, MixedKernelSpec,
                  brute_force_configuration_distribution)
from .errors import ConvergenceError, EnumerationCapError
from .ground import random_orthonormal
from .selftest import (law_deviations_pass, measurement_law_deviations,
                       run_all, sampler_chi_square)
from .slater import projection_kernel
from .w1_bounds import example_gap_table
from .w1_exact import DIM_CAP, rdm_certificates

SCHEMA_VERSION = 1

# fixed per-subcommand codes keeping derived seeds disjoint across commands
_SUBCOMMAND_CODE = {
    "verify-lemma": 1,
    "walsh": 2,
    "bounds": 3,
    "rdm-monotonicity": 4,
    "example-gap": 5,
    "selftest": 6,
}


@dataclass
class RunConfig:
    seed: int = 0
    fmt: str | None = None  # None: JSON, not asked for
    out: str | None = None
    enumeration_cap: int = ENUMERATION_CAP
    dim_cap: int = DIM_CAP
    extra: dict = field(default_factory=dict)
    read: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self):
        if self.enumeration_cap <= 0 or self.dim_cap <= 0:
            raise ValueError("caps must be positive")
        if self.fmt not in (None, "json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def get(self, key: str, default):
        """The key's value, of the default's type; marks the key as read."""
        self.read.add(key)
        return type(default)(self.extra.get(key, default))

    def reject_unread(self) -> None:
        """Refuse config keys the command has not read, before it runs anything."""
        unread = sorted(set(self.extra) - self.read)
        if unread:
            raise ValueError(f"config keys not used by this command: {', '.join(unread)}")

    def instance_seed(self, command: str, index: int) -> int:
        return (self.seed * 1_000_000
                + _SUBCOMMAND_CODE[command] * 100_000 + index)


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _load_config(args) -> RunConfig:
    config_path = getattr(args, "config", None)
    extra = _parse_config_file(config_path) if config_path else {}
    seed = int(extra.pop("seed", 0))
    seed = getattr(args, "seed", seed)
    fmt = extra.pop("format", None)
    fmt = getattr(args, "format", fmt)
    return RunConfig(
        seed=seed, fmt=fmt, out=getattr(args, "out", extra.pop("out", None)),
        enumeration_cap=int(extra.pop("enumeration_cap", ENUMERATION_CAP)),
        dim_cap=int(extra.pop("dim_cap", DIM_CAP)),
        extra=extra)


def _emit(cfg: RunConfig, command: str, report: dict, csv_header: list,
          csv_rows: list) -> None:
    if cfg.fmt != "csv":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "seed": cfg.seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "report": report,
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify_lemma(cfg: RunConfig, corrupt: bool = False) -> int:
    dim = cfg.get("verify_lemma.dim", 6)
    n = cfg.get("verify_lemma.n", 2)
    seeds = cfg.get("verify_lemma.seeds", 10)
    draws = cfg.get("verify_lemma.draws", 20_000)
    cfg.reject_unread()

    rows = []
    worst_incl = worst_mass = worst_diag = 0.0
    for s in range(seeds):
        fam = random_orthonormal(dim, n, seed=cfg.instance_seed("verify-lemma", s))
        kmat = projection_kernel(fam).matrix.copy()
        if corrupt:
            # negative control: break one off-diagonal entry and its mirror
            kmat[0, 1] += 0.5
            kmat[1, 0] += 0.5
        incl_dev, mass_dev, diag_mass = measurement_law_deviations(
            fam, kmat, cap=cfg.enumeration_cap)
        worst_incl = max(worst_incl, incl_dev)
        worst_mass = max(worst_mass, mass_dev)
        worst_diag = max(worst_diag, diag_mass)
        rows.append({"dim": dim, "n": n, "seed": s, "inclusion_dev": incl_dev,
                     "mass_dev": mass_dev, "repeated_mass": diag_mass})

    fam = random_orthonormal(dim, n, seed=cfg.instance_seed("verify-lemma", 0))
    dist = brute_force_configuration_distribution(fam, cap=cfg.enumeration_cap)
    rng = stream_generator(cfg.seed, _SUBCOMMAND_CODE["verify-lemma"], seeds)
    chi2, cutoff, _ = sampler_chi_square(fam, dist, draws, rng)

    ok = law_deviations_pass(worst_incl, worst_mass, worst_diag) and chi2 <= cutoff
    report = {
        "dim": dim, "n": n, "seeds": seeds, "corrupt": corrupt,
        "worst_inclusion_dev": worst_incl, "worst_mass_dev": worst_mass,
        "worst_repeated_mass": worst_diag,
        "chi2": chi2, "chi2_cutoff": cutoff, "sample_draws": draws,
        "passed": ok, "per_seed": rows,
    }
    header = ["dim", "n", "seed", "inclusion_dev", "mass_dev",
              "repeated_mass", "chi2", "chi2_cutoff"]
    csv_rows = [[r["dim"], r["n"], r["seed"], r["inclusion_dev"],
                 r["mass_dev"], r["repeated_mass"], "", ""] for r in rows]
    csv_rows.append([dim, n, "all", worst_incl, worst_mass, worst_diag,
                     chi2, cutoff])
    _emit(cfg, "verify-lemma", report, header, csv_rows)
    return 0 if ok else 1


def cmd_walsh(cfg: RunConfig) -> int:
    cfg.reject_unread()
    rep = walsh_counterexample_report()
    report = json.loads(rep.to_json())
    ok = (report["covariance_adjacent_cells"] == -0.25
          and report["covariance_adjacent_cells_alt"] == 0.0
          and report["density_transport_rhs"] == 0.0
          and report["tv_exact"] > 0.0 and report["wsharp_exact"] > 0.0)
    report["passed"] = ok
    header = ["covariance_adjacent_cells", "covariance_adjacent_cells_alt",
              "density_transport_rhs", "tv_exact", "wsharp_exact",
              "tv_bound", "wsharp_bound"]
    csv_rows = [[rep.covariance_adjacent_cells, rep.covariance_adjacent_cells_alt,
                 rep.density_transport_rhs, rep.tv_exact, rep.wsharp_exact,
                 rep.tv_bound, rep.wsharp_bound]]
    _emit(cfg, "walsh", report, header, csv_rows)
    return 0 if ok else 1


def cmd_bounds(cfg: RunConfig) -> int:
    count = cfg.get("bounds.count", 20)
    dim = cfg.get("bounds.dim", 6)
    n = cfg.get("bounds.n", 2)
    mode = cfg.get("bounds.mode", "exact")
    mixed = cfg.get("bounds.mixed_eigenvalues", 0)
    budget = cfg.get("bounds.budget", 20_000)
    resamples = cfg.get("bounds.bootstrap_resamples", 1000)
    cfg.reject_unread()
    if mode not in ("exact", "empirical"):
        raise ValueError(f"unknown bounds.mode {mode!r}")

    reports = []
    for i in range(count):
        seed_a = cfg.instance_seed("bounds", 2 * i)
        seed_b = cfg.instance_seed("bounds", 2 * i + 1)
        size = mixed if mixed > 0 else n
        fam_a = random_orthonormal(dim, size, seed=seed_a)
        fam_b = random_orthonormal(dim, size, seed=seed_b)
        if mixed > 0:
            g = stream_generator(cfg.seed, _SUBCOMMAND_CODE["bounds"], i)
            spec_a = MixedKernelSpec(g.random(size), fam_a)
            spec_b = MixedKernelSpec(g.random(size), fam_b)
        else:
            spec_a = MixedKernelSpec(np.ones(size), fam_a)
            spec_b = MixedKernelSpec(np.ones(size), fam_b)
        reports.append(verify_instance(spec_a, spec_b, mode=mode,
                                       budget=budget, seed=seed_a,
                                       bootstrap_resamples=resamples,
                                       enumeration_cap=cfg.enumeration_cap))

    min_tv = min(r.tv_slack for r in reports)
    min_ws = min(r.wsharp_slack for r in reports)
    ok = mode != "exact" or (min_tv >= -1e-9 and min_ws >= -1e-9)
    report = {
        "count": count, "dim": dim, "n": n, "mode": mode,
        "mixed_eigenvalues": mixed,
        "min_tv_slack": min_tv, "min_wsharp_slack": min_ws, "passed": ok,
        "instances": [json.loads(r.to_json()) for r in reports],
    }
    header = ["n_indices", "n_points", "mode", "tv_value", "wsharp_value",
              "tv_bound", "wsharp_bound", "tv_slack", "wsharp_slack"]
    csv_rows = [r.csv_row() for r in reports]
    csv_rows.append(["", "", "summary", "", "", "", "", min_tv, min_ws])
    _emit(cfg, "bounds", report, header, csv_rows)
    return 0 if ok else 1


def cmd_rdm_monotonicity(cfg: RunConfig) -> int:
    seeds = cfg.get("rdm.seeds", 20)
    dim = cfg.get("rdm.dim", 4)
    n = cfg.get("rdm.n", 2)
    tol = cfg.get("w1.tol", 1e-5)
    max_iter = cfg.get("w1.max_iter", 50_000)
    verdict_tol = 2 * cfg.get("rdm.verdict_tol", 1e-4)
    cfg.reject_unread()

    rows = []
    any_violation = False
    any_failure = False
    for s in range(seeds):
        fam_a = random_orthonormal(dim, n, seed=cfg.instance_seed("rdm-monotonicity", 2 * s))
        fam_b = random_orthonormal(dim, n, seed=cfg.instance_seed("rdm-monotonicity", 2 * s + 1))
        try:
            certs = rdm_certificates(fam_a, fam_b, tol=tol, max_iter=max_iter,
                                     dim_cap=cfg.dim_cap)
        except ConvergenceError as exc:
            any_failure = True
            rows.append({"seed": s, "values": None, "iterations": None, "gap": None,
                         "monotone": None, "error": str(exc)})
            continue
        values = [cert.value / k for k, cert in enumerate(certs, start=1)]
        monotone = all(hi >= lo - verdict_tol for lo, hi in zip(values, values[1:]))
        any_violation |= not monotone
        rows.append({"seed": s, "values": values, "iterations": [c.iterations for c in certs],
                     "gap": [c.gap for c in certs], "monotone": monotone, "error": None})

    report = {"seeds": seeds, "dim": dim, "n": n,
              "verdict_tol": verdict_tol, "rows": rows,
              "passed": not any_violation and not any_failure}
    header = ["seed"] + [f"value_{k}" for k in range(1, n + 1)] + \
        ["monotone", "error"]
    csv_rows = []
    for r in rows:
        vals = r["values"] if r["values"] is not None else [""] * n
        csv_rows.append([r["seed"], *vals, r["monotone"], r["error"] or ""])
    _emit(cfg, "rdm-monotonicity", report, header, csv_rows)
    if any_failure:
        return 2
    return 0 if not any_violation else 1


def cmd_example_gap(cfg: RunConfig) -> int:
    n_max = cfg.get("gap.n_max", 20)
    cfg.reject_unread()
    rows = example_gap_table(n_max)
    report = {"n_max": n_max, "rows": [
        {"n": r.n, "determinant": r.determinant,
         "mean_overlap": r.mean_overlap, "trace_distance": r.trace_distance,
         "w1_upper_over_n": r.w1_upper_over_n} for r in rows]}
    header = ["n", "determinant", "mean_overlap", "trace_distance",
              "w1_upper_over_n"]
    csv_rows = [[r.n, r.determinant, r.mean_overlap, r.trace_distance,
                 r.w1_upper_over_n] for r in rows]
    _emit(cfg, "example-gap", report, header, csv_rows)
    return 0


def cmd_selftest(cfg: RunConfig) -> int:
    only = cfg.get("selftest.only", "")
    cfg.reject_unread()
    names = [s.strip() for s in only.split(",") if s.strip()] or None
    results = run_all(names)
    # with `format` but no `out` the report takes stdout, so the lines go to stderr
    lines = sys.stderr if cfg.out is None and cfg.fmt is not None else sys.stdout
    for res in results:
        print(res.line(), file=lines)
    report = {"results": [{
        "name": r.name, "passed": r.passed, "elapsed_seconds": r.elapsed,
        "budget_seconds": r.budget, "detail": r.detail} for r in results],
        "passed": all(r.passed for r in results)}
    header = ["name", "passed", "elapsed_seconds", "budget_seconds", "detail"]
    csv_rows = [[r.name, r.passed, r.elapsed, r.budget or "", r.detail]
                for r in results]
    if cfg.out is not None or cfg.fmt is not None:
        _emit(cfg, "selftest", report, header, csv_rows)
    return 0 if report["passed"] else 1


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps absent flags out of the namespace, so a flag before the
    # subcommand is not clobbered by the subparser's default
    parser.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="root seed (default 0)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=argparse.SUPPRESS,
                        help="output format (default json)")
    parser.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiflow",
        description="Finite-ground-set checks relating Slater states and "
                    "determinantal point process laws.")
    _add_common_flags(parser)
    common = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify-lemma", parents=[common],
                       help="measurement law vs kernel minors, plus sampler chi-square")
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: perturb the kernel and expect failure")
    sub.add_parser("walsh", parents=[common],
                   help="equal-density pair with different laws")
    sub.add_parser("bounds", parents=[common],
                   help="distance bounds vs exact or sampled laws")
    sub.add_parser("rdm-monotonicity", parents=[common],
                   help="per-size reduced-state transport distances")
    sub.add_parser("example-gap", parents=[common],
                   help="tilted-pair divergence table")
    sub.add_parser("selftest", parents=[common],
                   help="run all pinned verification sweeps")
    return parser


def main(argv=None) -> int:
    # argparse raises SystemExit; fold it into the return code so the
    # function stays usable as a library entry point.
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "verify-lemma":
            return cmd_verify_lemma(cfg, corrupt=args.corrupt)
        if args.command == "walsh":
            return cmd_walsh(cfg)
        if args.command == "bounds":
            return cmd_bounds(cfg)
        if args.command == "rdm-monotonicity":
            return cmd_rdm_monotonicity(cfg)
        if args.command == "example-gap":
            return cmd_example_gap(cfg)
        if args.command == "selftest":
            return cmd_selftest(cfg)
    except EnumerationCapError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
