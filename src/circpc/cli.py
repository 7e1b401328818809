"""Command-line front end.

Tabular results go to stdout as CSV with headers, scalar results as
JSON.  Exit status: 0 on success, 2 on usage errors, 1 on runtime
errors.  Every command that consumes randomness requires --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

import numpy as np

from .distributions import FAMILIES, Dataset, DistributionSpec, Family, sample
from .divergence import BaseModel, distance, distance_deriv, profile_for
from .harness import (
    _PC_BASES,
    _REF_KINDS,
    PriorSpec,
    SimStudyConfig,
    build_concentration_prior,
    desk_study_config,
    full_study_config,
    run_sim_study,
    tail_from_data,
)
from .inference import McmcConfig, ModelSpec, run_mcmc, summarize
from .pc_priors import (
    Normalization,
    PcPrior,
    TailSpec,
    calibrate_lambda,
    calibrate_lambda_paper,
    pc_cdf,
    pc_pdf,
    tail_probability,
)
from .reference_priors import distance_scale_pdf, overfit_audit, ref_pdf

# command-line spellings of the harness's prior kinds and of the enums
_REF_KIND_NAMES = tuple(kind.replace("_", "-") for kind in _REF_KINDS)
_PC_KIND_NAMES = tuple(kind.replace("_", "-") for kind in _PC_BASES)
_FAMILY_NAMES = [f.value for f in Family]
_CONC_FAMILY_NAMES = [f.value for f in Family if FAMILIES[f].support is not None]
_BASE_NAMES = [b.value for b in BaseModel]


def _parse_grid(text):
    """lo:hi:n -> n evenly spaced points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like lo:hi:n") from None
    if n < 1 or not lo <= hi:
        raise argparse.ArgumentTypeError("grid needs lo <= hi and n >= 1")
    return np.linspace(lo, hi, n)


def _parse_profile(text):
    """family:base, e.g. vm:uniform."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("profile must look like family:base")
    try:
        return profile_for(Family(parts[0]), BaseModel(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit_csv(header, rows, out=None):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    finally:
        if out:
            fh.close()


def _emit_json(payload, out=None):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _build_reference_prior(kind, hypers):
    # reference priors ignore the family argument; any placeholder works
    spec = PriorSpec(kind.replace("-", "_"), tuple(hypers))
    return build_concentration_prior(spec, Family.VON_MISES)


def _cmd_pc_density(args):
    prior = PcPrior(Family(args.family), BaseModel(args.base), args.lam,
                    normalization=Normalization(args.normalization))
    grid = args.grid
    pdf = pc_pdf(prior, grid)
    cdf = pc_cdf(prior, grid)
    _emit_csv(["param", "pdf", "cdf"],
              [(float(x), float(p), float(c)) for x, p, c in zip(grid, pdf, cdf)],
              args.out)
    return 0


def _cmd_ref_density(args):
    prior = _build_reference_prior(args.prior, args.hypers)
    if args.profile is not None:
        dens = distance_scale_pdf(prior, args.profile, args.grid)
        _emit_csv(["d", "pdf"], list(zip(map(float, args.grid), map(float, dens))), args.out)
    else:
        dens = ref_pdf(prior, args.grid)
        _emit_csv(["param", "pdf"], list(zip(map(float, args.grid), map(float, dens))), args.out)
    return 0


def _cmd_distance(args):
    prof = profile_for(Family(args.family), BaseModel(args.base))
    if args.param is not None:
        _emit_json(
            {"param": args.param,
             "distance": distance(prof, args.param),
             "derivative": distance_deriv(prof, args.param)},
            args.out,
        )
    else:
        d = distance(prof, args.grid)
        g = distance_deriv(prof, args.grid)
        _emit_csv(["param", "distance", "derivative"],
                  [(float(x), float(a), float(b)) for x, a, b in zip(args.grid, d, g)],
                  args.out)
    return 0


def _cmd_audit(args):
    if args.prior == "pc":
        if args.lam is None:
            raise ValueError("--lambda is required for --prior pc")
        prior = PcPrior(args.profile.family, args.profile.base, args.lam)
    else:
        prior = _build_reference_prior(args.prior, args.hypers)
    report = overfit_audit(prior, args.profile,
                           grid_points=args.grid_points, d_cap=args.d_cap)
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_calibrate(args):
    family, base = Family(args.family), BaseModel(args.base)
    tail = TailSpec(args.U, args.alpha)
    if args.method == "paper":
        lam = calibrate_lambda_paper(family, base, tail)
        method = "closed_form"
    else:
        lam = calibrate_lambda(family, base, tail)
        method = "numeric"
    roundtrip = tail_probability(PcPrior(family, base, lam), tail)
    _emit_json({"lambda": lam, "method": method, "roundtrip_alpha": roundtrip}, args.out)
    return 0


def _cmd_sample(args):
    spec = DistributionSpec(Family(args.family), mu=args.mu, concentration=args.concentration)
    data = sample(spec, args.n, seed=args.seed)
    if args.out:
        data.save_csv(args.out)
    else:
        data.write_csv(sys.stdout)
    return 0


def _cmd_fit(args):
    family = Family(args.family)
    data = Dataset.load_csv(args.data)
    kind = args.prior.replace("-", "_")
    alpha = None
    lam = None
    if kind.startswith("pc_"):
        if args.U is None:
            raise ValueError("PC priors need --U")
        if args.alpha_from_data:
            alpha = tail_from_data(data, args.U, center=args.center).alpha
        elif args.alpha is not None:
            alpha = args.alpha
        else:
            raise ValueError("PC priors need --alpha or --alpha-from-data")
        spec = PriorSpec(kind, (alpha,), U=args.U, calibration=args.calibration)
    else:
        spec = PriorSpec(kind, tuple(args.hypers))
    prior = build_concentration_prior(spec, family)
    if isinstance(prior, PcPrior):
        lam = prior.lam
    cfg = McmcConfig(iterations=args.iterations, burn_in=args.burn_in, seed=args.seed)
    chain = run_mcmc(ModelSpec(family, prior), data, cfg)
    chain_path = args.chain_out or (args.data + ".chain.csv")
    chain.save_csv(chain_path)
    payload = summarize(chain).to_dict()
    payload.update({
        "n": len(data),
        "prior": args.prior,
        "lambda": lam,
        "alpha": alpha,
        "acceptance_rates": chain.acceptance_rates,
        "out_of_support": chain.out_of_support,
        "us_per_iter": 1e6 * chain.wall_s / cfg.iterations,
        "chain_csv": chain_path,
    })
    _emit_json(payload, args.out)
    return 0


# a study file's keys: the required ones, then the optional ones; a
# prior's and the mcmc block's are their dataclasses' fields
_STUDY_KEYS = (("family", "truths", "sample_sizes", "replicates", "priors"),
               ("base_seed", "mu_true", "mcmc"))
_PRIOR_KEYS = (("kind",), tuple(f.name for f in fields(PriorSpec) if f.name != "kind"))
_MCMC_KEYS = ((), tuple(f.name for f in fields(McmcConfig)))


def _checked_keys(obj, keys, where):
    """``obj`` as a dict whose keys are among ``keys`` = (required,
    optional) and hold every required one, else ValueError naming the
    keys at fault and ``where`` they are."""
    required, optional = keys
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = [k for k in obj if k not in required + optional]
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
                         f"expected {', '.join(map(repr, required + optional))}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(map(repr, missing))} in {where}")
    return obj


def _numbers(value, what):
    """``value`` as a tuple if it is a JSON array of numbers (true and
    false are not), else a ValueError naming ``what``: a string would
    split into its characters."""
    if not isinstance(value, list) or not all(type(v) in (int, float) for v in value):
        raise ValueError(f"{what} must be a JSON array of numbers")
    return tuple(value)


def _prior_from_json(obj, where):
    p = _checked_keys(obj, _PRIOR_KEYS, where)
    if "hypers" in p:
        p = {**p, "hypers": _numbers(p["hypers"], f"'hypers' in {where}")}
    return PriorSpec(**p)


def _config_from_json(path):
    """A study from a JSON file; a key the file leaves out takes its
    default from SimStudyConfig or PriorSpec. An unknown key, a missing
    required one, or a grid or hypers that is not an array of numbers, is
    a ValueError that names it."""
    with open(path) as fh:
        raw = _checked_keys(json.load(fh), _STUDY_KEYS, "the study config")
    if not isinstance(raw["priors"], list):
        raise ValueError("priors must be a JSON list")
    truths, sizes = (_numbers(raw[k], repr(k)) for k in ("truths", "sample_sizes"))
    priors = tuple(_prior_from_json(p, f"priors[{i}]") for i, p in enumerate(raw["priors"]))
    # the optional keys are SimStudyConfig's own fields
    optional = {k: raw[k] for k in _STUDY_KEYS[1] if k in raw}
    if "mcmc" in optional:
        optional["mcmc"] = McmcConfig(**_checked_keys(optional["mcmc"], _MCMC_KEYS, "mcmc"))
    return SimStudyConfig(
        family=Family(raw["family"]),
        true_concentration_grid=truths,
        sample_sizes=sizes,
        replicates=raw["replicates"],
        prior_specs=priors,
        **optional,
    )


def _cmd_simulate(args):
    if args.config:
        config = _config_from_json(args.config)
    elif args.full:
        config = full_study_config(Family(args.family))
    else:
        if Family(args.family) is not Family.VON_MISES:
            raise ValueError("the reduced study is von Mises only; use --full or --config")
        config = desk_study_config()
    config = replace(config, base_seed=args.seed)
    result = run_sim_study(config, workers=args.workers)
    if args.out:
        result.to_csv(args.out)
    else:
        result.write_csv(sys.stdout)
    return 0


def _add_out(p):
    p.add_argument("--out", help="write to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="circpc",
        description="Penalized-complexity priors for circular distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pc-density", help="PC prior pdf/cdf over a parameter grid")
    p.add_argument("--family", required=True, choices=_CONC_FAMILY_NAMES)
    p.add_argument("--base", required=True, choices=_BASE_NAMES)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--normalization", default="truncated", choices=["truncated", "paper"])
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="LO:HI:N")
    _add_out(p)
    p.set_defaults(fn=_cmd_pc_density)

    p = sub.add_parser("ref-density", help="reference prior density, optionally on the distance scale")
    p.add_argument("--prior", required=True, choices=_REF_KIND_NAMES)
    p.add_argument("--hypers", type=float, nargs="*", default=[])
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="LO:HI:N")
    p.add_argument("--profile", type=_parse_profile, metavar="FAMILY:BASE",
                   help="transform the density to this distance scale")
    _add_out(p)
    p.set_defaults(fn=_cmd_ref_density)

    p = sub.add_parser("distance", help="distance to the base model and its derivative")
    p.add_argument("--family", required=True, choices=_CONC_FAMILY_NAMES)
    p.add_argument("--base", required=True, choices=_BASE_NAMES)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--param", type=float)
    g.add_argument("--grid", type=_parse_grid, metavar="LO:HI:N")
    _add_out(p)
    p.set_defaults(fn=_cmd_distance)

    p = sub.add_parser("audit", help="overfitting audit of a prior on a distance scale")
    p.add_argument("--prior", required=True, choices=_REF_KIND_NAMES + ("pc",))
    p.add_argument("--hypers", type=float, nargs="*", default=[])
    p.add_argument("--lambda", dest="lam", type=float, help="rate when --prior pc")
    p.add_argument("--profile", type=_parse_profile, required=True, metavar="FAMILY:BASE")
    p.add_argument("--grid-points", type=int, default=1000)
    p.add_argument("--d-cap", type=float, default=4.0)
    _add_out(p)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("calibrate", help="solve the rate from a tail statement")
    p.add_argument("--family", required=True, choices=_CONC_FAMILY_NAMES)
    p.add_argument("--base", default="uniform", choices=_BASE_NAMES)
    p.add_argument("--U", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--method", default="numeric", choices=["numeric", "paper"])
    _add_out(p)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("sample", help="draw angles from a circular distribution")
    p.add_argument("--family", required=True, choices=_FAMILY_NAMES)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--concentration", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("fit", help="posterior for (mu, concentration) from an angle CSV")
    p.add_argument("--family", required=True, choices=_CONC_FAMILY_NAMES)
    p.add_argument("--data", required=True, help="CSV with an angle_rad column")
    p.add_argument("--prior", required=True, choices=_PC_KIND_NAMES + _REF_KIND_NAMES)
    p.add_argument("--hypers", type=float, nargs="*", default=[])
    p.add_argument("--U", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-from-data", action="store_true",
                   help="derive alpha from the share of data beyond U/2")
    p.add_argument("--center", default="mean", choices=["mean", "zero"])
    p.add_argument("--calibration", default="numeric", choices=["numeric", "paper"])
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--burn-in", type=int, default=5000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--chain-out", help="chain CSV path (default: DATA.chain.csv)")
    _add_out(p)
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("simulate", help="run the simulation study")
    p.add_argument("--family", default="vm", choices=_CONC_FAMILY_NAMES)
    p.add_argument("--full", action="store_true", help="full-scale grids (slow)")
    p.add_argument("--config", help="JSON study config overriding the defaults")
    p.add_argument("--seed", type=int, required=True,
                   help="base seed for the study; replaces a config file's base_seed")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", help="write the result CSV here instead of stdout")
    p.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
