"""Simulation-study driver and data-driven tail elicitation.

A study is a grid of cells (prior, truth, sample size); each cell draws
``replicates`` datasets at the true concentration, fits the model with
``run_mcmc``, and averages the posterior means.  Replicate ``r`` uses
seed ``base_seed + r`` for the data and ``base_seed + 10**6 + r`` for
the chain, so results are bit-identical no matter how cells are
scheduled across workers.
"""

from __future__ import annotations

import concurrent.futures
import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .distributions import FAMILIES, TWO_PI, Dataset, DistributionSpec, Family, circular_mean, sample
from .divergence import BaseModel
# summarize is not called here: the name stays because the traced study-vm
# benchmark wraps every name in perfbench's HARNESS_CALLS, this one included
from .inference import InitializationError, McmcConfig, ModelSpec, run_mcmc, summarize  # noqa: F401
from .pc_priors import PcPrior, TailSpec, calibrate_lambda, calibrate_lambda_paper
from .reference_priors import Beta, GammaOneB, H2, H3, ScaledBetaHalf, UniformHalf
from .special import _checked, _count

_LOG = logging.getLogger(__name__)

__all__ = [
    "PriorSpec",
    "SimStudyConfig",
    "SimStudyResult",
    "build_concentration_prior",
    "run_sim_study",
    "desk_study_config",
    "full_study_config",
    "tail_from_data",
]

_PC_BASES = {
    "pc_uniform": BaseModel.UNIFORM,
    "pc_pointmass": BaseModel.POINT_MASS,
    "pc_curve": BaseModel.CARDIOID_CURVE,
}

# reference-prior kind -> (constructor, number of hyperparameters)
_REF_KINDS = {
    "gamma": (GammaOneB, 1),
    "h2": (H2, 0),
    "h3": (H3, 0),
    "beta": (Beta, 2),
    "scaled_beta": (ScaledBetaHalf, 2),
    "uniform_half": (UniformHalf, 0),
}


def _sequence(value, name):
    """``value`` as a tuple; a string, which would split into its
    characters, raises ValueError."""
    if isinstance(value, str):
        raise ValueError(f"{name} must be a sequence, not a string")
    return tuple(value)


@dataclass(frozen=True)
class PriorSpec:
    """Declarative prior description for a study grid.

    PC kinds carry a single hyperparameter (the tail probability alpha)
    plus the tail threshold U; ``calibration`` picks the numeric solver
    or the published closed forms for the rate.
    """

    kind: str
    hypers: tuple = ()
    U: Optional[float] = None
    calibration: str = "numeric"

    def __post_init__(self):
        object.__setattr__(self, "hypers", tuple(map(float, _sequence(self.hypers, "hypers"))))
        if self.kind in _PC_BASES:
            if len(self.hypers) != 1:
                raise ValueError(f"{self.kind} takes exactly one hyperparameter (alpha)")
            if self.U is None:
                raise ValueError(f"{self.kind} requires a tail threshold U")
        elif self.kind in _REF_KINDS:
            want = _REF_KINDS[self.kind][1]
            if len(self.hypers) != want:
                raise ValueError(f"{self.kind} takes {want} hyperparameter(s)")
        else:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.calibration not in ("numeric", "paper"):
            raise ValueError("calibration must be 'numeric' or 'paper'")

    @property
    def hyper_label(self) -> str:
        # repr is the shortest exact form: 0.1 stays "0.1", not 0.10000000000000001
        if not self.hypers:
            return "-"
        if len(self.hypers) == 2:
            return f"a={self.hypers[0]!r};b={self.hypers[1]!r}"
        return repr(self.hypers[0])


def build_concentration_prior(spec: PriorSpec, family: Family):
    """Instantiate the prior, calibrating the PC rate when needed."""
    family = Family(family)
    if spec.kind in _PC_BASES:
        base = _PC_BASES[spec.kind]
        tail = TailSpec(spec.U, spec.hypers[0])
        if spec.calibration == "paper":
            lam = calibrate_lambda_paper(family, base, tail)
        else:
            lam = calibrate_lambda(family, base, tail)
        return PcPrior(family, base, lam)
    ctor = _REF_KINDS[spec.kind][0]
    return ctor(*spec.hypers)


@dataclass(frozen=True)
class SimStudyConfig:
    family: Family
    true_concentration_grid: Sequence[float]
    sample_sizes: Sequence[int]
    replicates: int
    prior_specs: Sequence[PriorSpec]
    base_seed: int = 520
    mcmc: McmcConfig = McmcConfig()
    mu_true: float = math.pi

    def __post_init__(self):
        fam = Family(self.family)
        support = FAMILIES[fam].support
        if support is None:
            raise ValueError("the uniform family has no concentration to study")
        object.__setattr__(self, "family", fam)
        grid, sizes, specs = (_sequence(getattr(self, name), name) for name in
                              ("true_concentration_grid", "sample_sizes", "prior_specs"))
        truths = tuple(map(float, grid))
        sizes = tuple(_count(n, "sample size") for n in sizes)
        if not truths or not sizes or not specs:
            raise ValueError("grids must be non-empty")
        lo, hi = support
        for t in truths:
            if not lo <= t < hi:
                raise ValueError(f"true concentration {t} outside the {fam.value} support")
        object.__setattr__(self, "true_concentration_grid", truths)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "prior_specs", specs)
        object.__setattr__(self, "replicates", _count(self.replicates, "replicates"))
        object.__setattr__(self, "base_seed", _count(self.base_seed, "base_seed", allow_zero=True))
        object.__setattr__(self, "mu_true", _checked(float(self.mu_true), -math.inf, math.inf, "mu_true"))


@dataclass(frozen=True)
class SimStudyResult:
    """One row per (prior, hyper, truth, N) cell, in config grid order."""

    rows: tuple

    def write_csv(self, fh):
        writer = csv.writer(fh)
        writer.writerow(
            ["prior", "hyper", "truth", "N", "post_mean_avg", "post_mean_sd", "cells_failed"]
        )
        for prior, hyper, truth, n, avg, sd, failed in self.rows:
            writer.writerow(
                [prior, hyper, repr(truth), n, f"{avg:.17g}", f"{sd:.17g}", failed]
            )

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)


def _run_cell(task):
    """All replicates of one cell; must stay top-level for process pools.

    A replicate's posterior mean is its chain's concentration mean, taken
    straight from the draws: exactly ``summarize(chain).concentration_mean``,
    without the interval, circular mean and ESS the study never reads.
    A replicate whose chain cannot start, or whose fit raises anything
    else, counts as failed; the others still run, so one bad replicate
    never takes the study down. Unexpected errors are logged at WARNING
    with the cell, the replicate, its seeds and the traceback.
    """
    model, truth, n, replicates, base_seed, mcmc = task
    means = []
    failed = 0
    for r in range(replicates):
        data = sample(truth, n, seed=base_seed + r)
        cfg = replace(mcmc, seed=base_seed + 10 ** 6 + r)
        try:
            mean = float(run_mcmc(model, data, cfg).concentration.mean())
        except InitializationError:
            failed += 1
            continue
        except Exception:
            failed += 1
            _LOG.warning(
                "replicate %d of cell (prior=%r, truth=%r, N=%d) failed; "
                "data seed %d, chain seed %d",
                r, model.concentration_prior, truth.concentration, n,
                base_seed + r, cfg.seed, exc_info=True,
            )
            continue
        means.append(mean)
    return means, failed


def run_sim_study(config: SimStudyConfig, *, workers: Optional[int] = None) -> SimStudyResult:
    """Run every cell of the study grid, serially or on a process pool.

    Worker count affects wall time only; the result table is identical
    for any scheduling because each replicate derives its own seeds.
    Each prior is matched to the family once, before any chain runs.
    """
    family = config.family
    models = [ModelSpec(family, build_concentration_prior(s, family)) for s in config.prior_specs]
    truths = [DistributionSpec(family, config.mu_true, t) for t in config.true_concentration_grid]
    cells = [(spec, (model, truth, n, config.replicates, config.base_seed, config.mcmc))
             for spec, model in zip(config.prior_specs, models)
             for truth in truths
             for n in config.sample_sizes]
    if workers is None or workers == 1:
        outcomes = [_run_cell(task) for _, task in cells]
    else:
        # the package's attribute loads the pool's module, and multiprocessing,
        # on first use, so a serial run never imports them
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell, [task for _, task in cells]))
    rows = []
    for (spec, (_, truth, n, *_)), (means, failed) in zip(cells, outcomes):
        avg = float(np.mean(means)) if means else math.nan
        sd = float(np.std(means, ddof=1)) if len(means) > 1 else 0.0
        rows.append((spec.kind, spec.hyper_label, truth.concentration, n, avg, sd, failed))
    return SimStudyResult(rows=tuple(rows))


def desk_study_config(base_seed: int = 520) -> SimStudyConfig:
    """Reduced von Mises study: 20 replicates, N in {100, 300}."""
    priors = [PriorSpec("pc_uniform", (a,), U=math.pi / 2)
              for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
    priors += [PriorSpec("gamma", (b,)) for b in (0.01, 0.1, 1.0, 5.0)]
    return SimStudyConfig(
        family=Family.VON_MISES,
        true_concentration_grid=(0.33, 1.0, 3.0),
        sample_sizes=(100, 300),
        replicates=20,
        prior_specs=tuple(priors),
        base_seed=base_seed,
        mcmc=McmcConfig(iterations=3000, burn_in=1000),
    )


def full_study_config(family, base_seed: int = 520) -> SimStudyConfig:
    """Full-scale grids: 100 replicates, N in {100, 300, 1000}.

    Point-mass and curve tail statements whose alpha is not attainable
    under truncated normalization use the published closed-form rates;
    the posterior only needs the rate, not the normalizing constant.
    """
    family = Family(family)
    sizes = (100, 300, 1000)
    if family is Family.VON_MISES:
        truths = (0.02, 0.33, 1.0, 1.67, 3.0, 7.0, 15.0, 59.0)
        alphas = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
        priors = [PriorSpec("gamma", (b,)) for b in (0.01, 0.05, 0.1, 1.0, 5.0)]
        priors += [PriorSpec("pc_uniform", (a,), U=math.pi / 2) for a in alphas]
        priors += [PriorSpec("pc_pointmass", (a,), U=math.pi / 2, calibration="paper")
                   for a in alphas]
        priors += [PriorSpec("h2"), PriorSpec("h3")]
    elif family is Family.CARDIOID:
        truths = (0.0, 0.01, 0.1, 0.2, 0.3, 0.4, 0.49)
        priors = [PriorSpec("uniform_half")]
        priors += [PriorSpec("scaled_beta", (a, b))
                   for a in (0.5, 1.0, 2.0, 5.0) for b in (0.5, 1.0, 2.0, 5.0)]
        priors += [PriorSpec("pc_uniform", (a,), U=0.5)
                   for a in (0.01, 0.1, 0.2, 0.3, 0.4, 0.5)]
        priors += [PriorSpec("pc_curve", (a,), U=0.5, calibration="paper")
                   for a in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    elif family is Family.WRAPPED_CAUCHY:
        truths = (0.0, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
        priors = [PriorSpec("beta", (a, b))
                  for a in (0.5, 1.0, 2.0, 5.0) for b in (0.5, 1.0, 2.0, 5.0)]
        priors += [PriorSpec("pc_uniform", (a,), U=0.6)
                   for a in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)]
    else:
        raise ValueError("no study grid for the uniform family")
    return SimStudyConfig(
        family=family,
        true_concentration_grid=truths,
        sample_sizes=sizes,
        replicates=100,
        prior_specs=tuple(priors),
        base_seed=base_seed,
    )


def tail_from_data(data: Dataset, U: float, *, center: str = "mean") -> TailSpec:
    """Empirical tail statement: fraction of the sample further than U/2
    from the reference direction, clamped away from 0 and 1 so the
    statement stays calibratable.

    ``center`` picks the reference: the sample circular mean, or the
    fixed direction 0.
    """
    if not 0.0 < U <= TWO_PI:
        raise ValueError("U must lie in (0, 2*pi]")
    angles = np.asarray(data.angles, dtype=float)
    n = angles.size
    if n == 0:
        raise ValueError("dataset must contain at least one angle")
    if center == "mean":
        ref = float(circular_mean(angles))
    elif center == "zero":
        ref = 0.0
    else:
        raise ValueError("center must be 'mean' or 'zero'")
    gap = np.abs(angles - ref) % TWO_PI
    dist = np.pi - np.abs(np.pi - gap)
    alpha = float(np.count_nonzero(dist > U / 2.0)) / n
    alpha = min(max(alpha, 0.5 / n), 1.0 - 0.5 / n)
    return TailSpec(U, alpha)
