"""Command-line front end.

Every subcommand is deterministic given the config and the root seed:
instance seeds are derived arithmetically from the root seed, so reruns
produce identical output except for the timestamp field in the JSON
envelope and the timings of `selftest`. Exit codes: 0 success, 1
mathematical-property violation, 2 resource or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ._rng import stream_generator
from .bounds import verify_instance, walsh_counterexample_report
from .dpp import (ENUMERATION_CAP, MixedKernelSpec,
                  brute_force_configuration_distribution)
from .errors import ConvergenceError, EnumerationCapError
from .ground import random_orthonormal
from .selftest import (interval_passed, law_deviations_pass, measurement_law_deviations,
                       monotonicity_margin, run_all, sampler_chi_square,
                       slack_passed, walsh_exhibit_passed)
from .w1_bounds import example_gap_table
from .w1_exact import DIM_CAP, MAX_ITER, TOL, rdm_certificates

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
    extra: dict = field(default_factory=dict)
    read: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self):
        if self.fmt not in (None, "json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def get(self, key: str, default):
        """The key's value, of the default's type; marks the key as read."""
        self.read.add(key)
        return type(default)(self.extra.get(key, default))

    def get_positive(self, key: str, default):
        """`get` for a cap, a count or a tolerance, which must be positive."""
        value = self.get(key, default)
        if value <= 0:
            raise ValueError(f"{key} must be positive, got {value}")
        return value

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
    return RunConfig(seed=seed, fmt=fmt, out=getattr(args, "out", extra.pop("out", None)),
                     extra=extra)


def _emit(cfg: RunConfig, command: str, report: dict, columns: list,
          rows: list) -> None:
    """Write `report` in the JSON envelope, or `rows` (dicts) as CSV by `columns`.

    A column a row lacks is an empty cell.
    """
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
        writer.writerow(columns)
        writer.writerows([row.get(c) for c in columns] for row in rows)
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify_lemma(cfg: RunConfig, corrupt: bool = False) -> int:
    dim = cfg.get_positive("verify_lemma.dim", 6)
    n = cfg.get_positive("verify_lemma.n", 2)
    seeds = cfg.get_positive("verify_lemma.seeds", 10)
    draws = cfg.get_positive("verify_lemma.draws", 20_000)
    cap = cfg.get_positive("enumeration_cap", ENUMERATION_CAP)
    cfg.reject_unread()

    rows = []
    worst_incl = worst_mass = worst_diag = 0.0
    for s in range(seeds):
        fam = random_orthonormal(dim, n, seed=cfg.instance_seed("verify-lemma", s))
        kmat = MixedKernelSpec(np.ones(n), fam).kernel_matrix()
        if corrupt:
            # negative control: break one off-diagonal entry and its mirror
            kmat[0, 1] += 0.5
            kmat[1, 0] += 0.5
        incl_dev, mass_dev, diag_mass = measurement_law_deviations(fam, kmat, cap=cap)
        worst_incl = max(worst_incl, incl_dev)
        worst_mass = max(worst_mass, mass_dev)
        worst_diag = max(worst_diag, diag_mass)
        rows.append({"dim": dim, "n": n, "seed": s, "inclusion_dev": incl_dev,
                     "mass_dev": mass_dev, "repeated_mass": diag_mass})

    fam = random_orthonormal(dim, n, seed=cfg.instance_seed("verify-lemma", 0))
    dist = brute_force_configuration_distribution(fam, cap=cap)
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
    summary = {"dim": dim, "n": n, "seed": "all", "inclusion_dev": worst_incl,
               "mass_dev": worst_mass, "repeated_mass": worst_diag,
               "chi2": chi2, "chi2_cutoff": cutoff}
    _emit(cfg, "verify-lemma", report,
          ["dim", "n", "seed", "inclusion_dev", "mass_dev", "repeated_mass",
           "chi2", "chi2_cutoff"], rows + [summary])
    return 0 if ok else 1


def cmd_walsh(cfg: RunConfig) -> int:
    cfg.reject_unread()
    rep = walsh_counterexample_report()
    report = asdict(rep)
    columns = list(report)
    report["passed"] = ok = walsh_exhibit_passed(rep)
    _emit(cfg, "walsh", report, columns, [report])
    return 0 if ok else 1


def cmd_bounds(cfg: RunConfig) -> int:
    count = cfg.get_positive("bounds.count", 20)
    dim = cfg.get_positive("bounds.dim", 6)
    n = cfg.get_positive("bounds.n", 2)
    mode = cfg.get("bounds.mode", "exact")
    mixed = cfg.get("bounds.mixed_eigenvalues", 0)
    if mode == "exact":
        options = {"enumeration_cap": cfg.get_positive("enumeration_cap", ENUMERATION_CAP)}
    else:
        options = {"budget": cfg.get_positive("bounds.budget", 20_000),
                   "bootstrap_resamples": cfg.get_positive("bounds.bootstrap_resamples", 1000)}
    cfg.reject_unread()
    if mode not in ("exact", "empirical"):
        raise ValueError(f"unknown bounds.mode {mode!r}")
    if mixed < 0:
        raise ValueError(f"bounds.mixed_eigenvalues must not be negative, got {mixed}")
    if mixed > 0 and "bounds.n" in cfg.extra:
        raise ValueError("bounds.n is not used when bounds.mixed_eigenvalues > 0: "
                         "mixed runs take one function per eigenvalue")
    size = mixed if mixed > 0 else n

    instances = []
    for i in range(count):
        seed_a = cfg.instance_seed("bounds", 2 * i)
        seed_b = cfg.instance_seed("bounds", 2 * i + 1)
        fam_a = random_orthonormal(dim, size, seed=seed_a)
        fam_b = random_orthonormal(dim, size, seed=seed_b)
        if mixed > 0:
            g = stream_generator(cfg.seed, _SUBCOMMAND_CODE["bounds"], i)
            spec_a = MixedKernelSpec(g.random(size), fam_a)
            spec_b = MixedKernelSpec(g.random(size), fam_b)
        else:
            spec_a = MixedKernelSpec(np.ones(size), fam_a)
            spec_b = MixedKernelSpec(np.ones(size), fam_b)
        rep = verify_instance(spec_a, spec_b, mode=mode, seed=seed_a, **options)
        instances.append({k: v for k, v in asdict(rep).items() if v is not None})

    min_tv = min(r["tv_slack"] for r in instances)
    min_ws = min(r["wsharp_slack"] for r in instances)
    if mode == "exact":
        ok = slack_passed(min_tv) and slack_passed(min_ws)
    else:
        # a sampled value is judged by its interval: Clopper-Pearson for TV, bootstrap for W#
        ok = all(interval_passed(r["tv_bound"], r["tv_ci"])
                 and interval_passed(r["wsharp_bound"], r["wsharp_ci"]) for r in instances)
    report = {
        "count": count, "dim": dim, "n": size, "mode": mode,
        "mixed_eigenvalues": mixed,
        "min_tv_slack": min_tv, "min_wsharp_slack": min_ws, "passed": ok,
        "instances": instances,
    }
    summary = {"mode": "summary", "tv_slack": min_tv, "wsharp_slack": min_ws}
    _emit(cfg, "bounds", report,
          ["n_indices", "n_points", "mode", "tv_value", "wsharp_value",
           "tv_bound", "wsharp_bound", "tv_slack", "wsharp_slack"], instances + [summary])
    return 0 if ok else 1


def cmd_rdm_monotonicity(cfg: RunConfig) -> int:
    seeds = cfg.get_positive("rdm.seeds", 20)
    dim = cfg.get_positive("rdm.dim", 4)
    n = cfg.get_positive("rdm.n", 2)
    tol = cfg.get_positive("w1.tol", TOL)
    max_iter = cfg.get_positive("w1.max_iter", MAX_ITER)
    dim_cap = cfg.get_positive("dim_cap", DIM_CAP)
    cfg.reject_unread()

    rows = []
    for s in range(seeds):
        fam_a = random_orthonormal(dim, n, seed=cfg.instance_seed("rdm-monotonicity", 2 * s))
        fam_b = random_orthonormal(dim, n, seed=cfg.instance_seed("rdm-monotonicity", 2 * s + 1))
        try:
            certs = rdm_certificates(fam_a, fam_b, tol=tol, max_iter=max_iter, dim_cap=dim_cap)
        except ConvergenceError as exc:
            rows.append({"seed": s, "values": None, "iterations": None, "gap": None,
                         "scale": None, "monotone": None, "error": str(exc)})
            continue
        rows.append({"seed": s, "values": [c.value / k for k, c in enumerate(certs, start=1)],
                     "iterations": [c.iterations for c in certs], "gap": [c.gap for c in certs],
                     "scale": [c.scale for c in certs],
                     "monotone": monotonicity_margin(certs) >= 0.0, "error": None})

    any_failure = any(r["error"] is not None for r in rows)
    any_violation = any(r["monotone"] is False for r in rows)
    report = {"seeds": seeds, "dim": dim, "n": n, "rows": rows,
              "passed": not any_violation and not any_failure}
    value_columns = [f"value_{k}" for k in range(1, n + 1)]
    _emit(cfg, "rdm-monotonicity", report, ["seed", *value_columns, "monotone", "error"],
          [{**r, **dict(zip(value_columns, r["values"] or ()))} for r in rows])
    if any_failure:
        return 2
    return 0 if not any_violation else 1


def cmd_example_gap(cfg: RunConfig) -> int:
    n_max = cfg.get_positive("gap.n_max", 20)
    cfg.reject_unread()
    rows = [asdict(r) for r in example_gap_table(n_max)]
    _emit(cfg, "example-gap", {"n_max": n_max, "rows": rows},
          ["n", "determinant", "mean_overlap", "trace_distance", "w1_lower_over_n",
           "w1_upper_over_n"], rows)
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
    rows = [{"name": r.name, "passed": r.passed, "elapsed_seconds": r.elapsed,
             "budget_seconds": r.budget, "detail": r.detail} for r in results]
    passed = all(r.passed for r in results)
    if cfg.out is not None or cfg.fmt is not None:
        _emit(cfg, "selftest", {"results": rows, "passed": passed},
              ["name", "passed", "elapsed_seconds", "budget_seconds", "detail"], rows)
    return 0 if passed else 1


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
