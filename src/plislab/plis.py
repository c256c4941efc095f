"""Per-subject privacy loss, the PLIS matrix, FIM/FIL and JacSens.

The subject-level privacy loss is the squared per-sample parameter
gradient norm over the noise variance (the gradient signal alone in the
non-private setting).  Its Jacobian with respect to the subject's input
is computed by two independent routes that must agree:

  * direct:   double backpropagation of ||g||^2 / sigma^2 through the tape;
  * expanded: (2/sigma^2) * g^T (dg/dx) as a vector-Jacobian product with
    the left factor g detached (the constant cotangent).

The full input Jacobian J = dg/dx needed for the FIM and JacSens is only
materialized for desk-scale models (dimension guard), which is exactly
the cost contrast the PLIS route avoids.  It is forward-mode and
tape-free: models.grad_tangents carries a chunk of input directions e_j
as tangents through the first-order kernels and returns the columns
J[:, j].  It builds no graph.

Batch axis: subjects are analysed models.chunk_size() at a time on one graph.
Subject i's privacy loss depends only on its own rows of the tiled
parameters and of X, so one backward pass of the summed privacy losses
to X returns every subject's PLIS in its own row: two backward passes
per chunk, not per subject.  The input Jacobian takes one subject and
models.chunk_size() of its input directions per call.  Every graph is
dropped when the call returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward, mul, tsum, square
from .datasets import SubjectRecord
from .dpsgd import clip_differentiable, refuse_dropped_row
from .errors import ConfigError, DimensionGuardError
from .models import (
    ModelSpec,
    ParamSet,
    attach_sample,
    chunk_size,
    chunks,
    grad_tangents,
    parameter_grad,
)

MODE_PRIVATE = "private"
MODE_NON_PRIVATE = "non-private"

# largest dimension of any materialized Jacobian/FIM factor (J is p x d,
# the FIM is d x d; both dims must stay desk-scale)
DIMENSION_GUARD = 4096


@dataclass
class PlisReport:
    subject_id: str
    pl: float
    plis: np.ndarray  # same shape as the subject's input
    subject_plis_norm: float
    mode: str
    sigma: float | None


@dataclass
class FimReport:
    subject_id: str
    fim: np.ndarray  # d x d
    fil_subject: float  # largest singular value of J / sigma
    fil_per_attribute: np.ndarray  # sqrt of the FIM diagonal


@dataclass
class JacSensReport:
    subject_id: str
    jac: np.ndarray  # p x d
    spectral_norm: float
    frobenius_norm: float


def _check_sigma(sigma: float | None) -> None:
    # an infinite sigma would report PL = PLIS = 0 for every subject
    if sigma is not None and not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be finite and positive when given, got {sigma}")


def plis_reports(
    spec: ModelSpec,
    params: ParamSet,
    subjects,
    sigma: float | None = None,
    clip: float | None = None,
    expanded: bool = False,
) -> list[PlisReport]:
    """PLIS of every subject, in order, by the direct or the expanded route.

    Each chunk of models.chunk_size() subjects shares one graph.  The direct
    route backpropagates sum_i ||g_i||^2 / sigma^2 to X; the expanded one
    backpropagates sum_i <g_i, c_i> with each row c_i = g_i detached and
    scales by 2 / sigma^2.
    """
    _check_sigma(sigma)
    scale = 1.0 if sigma is None else 1.0 / (sigma * sigma)
    reports = []
    for part in chunks(list(subjects), chunk_size(params)):
        sample = attach_sample(spec, params, np.stack([s.x for s in part]), [s.y for s in part])
        g = parameter_grad(sample, create_graph=True)
        if clip is not None:
            refuse_dropped_row(part, g.data, clip)
            g = clip_differentiable(g, clip)
        if expanded:
            cotangent = Tensor(g.data.copy())  # detached: the constant left factor
            (gx,) = backward(tsum(mul(g, cotangent)), [sample.x])
            pl = scale * np.square(g.data).sum(axis=1)
            plis = 2.0 * scale * gx.data
        else:
            pl_rows = tsum(square(g), axes=1)
            if sigma is not None:
                pl_rows = mul(pl_rows, scale)
            (gx,) = backward(tsum(pl_rows), [sample.x])
            pl, plis = pl_rows.data, gx.data
        reports.extend(_report(s, float(v), m, sigma) for s, v, m in zip(part, pl, plis))
    return reports


def plis_direct(
    spec: ModelSpec,
    params: ParamSet,
    subject: SubjectRecord,
    sigma: float | None = None,
    clip: float | None = None,
) -> PlisReport:
    """PLIS by double backpropagation of the privacy loss to the input."""
    return plis_reports(spec, params, [subject], sigma, clip)[0]


def plis_expanded(
    spec: ModelSpec,
    params: ParamSet,
    subject: SubjectRecord,
    sigma: float | None = None,
    clip: float | None = None,
) -> PlisReport:
    """PLIS via the vector-Jacobian expansion with the left factor detached."""
    return plis_reports(spec, params, [subject], sigma, clip, expanded=True)[0]


def _report(subject: SubjectRecord, pl: float, plis: np.ndarray, sigma: float | None) -> PlisReport:
    return PlisReport(
        subject_id=subject.id,
        pl=pl,
        plis=plis,
        subject_plis_norm=float(np.linalg.norm(plis)),
        mode=MODE_NON_PRIVATE if sigma is None else MODE_PRIVATE,
        sigma=sigma,
    )


def deviation(reference: PlisReport, other: PlisReport, x) -> float:
    """Largest |reference - other| PLIS entry over max(max |reference|, PL / max |x|).

    PL / max |x| is an absolute floor of the size dPL/dx takes where PL
    varies with x.  A subject whose clipped gradient is saturated has a
    PL that is flat in x and a PLIS that is zero up to roundoff; measured
    against itself, that roundoff would read as disagreement.
    """
    floor = reference.pl / (float(np.abs(x).max()) or 1.0)
    scale = max(float(np.abs(reference.plis).max()), floor, 1e-300)
    return float(np.abs(reference.plis - other.plis).max() / scale)


# --------------------------------------------------------------------------
# input Jacobian of the parameter gradient (FIM / JacSens)
# --------------------------------------------------------------------------


def _guard(p: int, d: int, what: str) -> None:
    if max(p, d) > DIMENSION_GUARD:
        raise DimensionGuardError(
            f"{what} would materialize a {p} x {d} Jacobian; the guard is "
            f"{DIMENSION_GUARD} per dimension. Use the PLIS routes instead: they "
            "only ever backpropagate scalars."
        )


def input_jacobian(spec: ModelSpec, params: ParamSet, subject: SubjectRecord) -> np.ndarray:
    """J = d(grad_theta loss)/dx, materialized as a p x d matrix.

    Forward mode: each call of models.grad_tangents takes up to
    models.chunk_size() unit directions e_j and returns the columns
    J[:, j].  No graph is built.  Relu masks are constant along every
    direction, so it is the J that the tape's double backward gives.
    """
    p = params.count
    d = int(np.prod(subject.x.shape, dtype=np.int64))
    _guard(p, d, "input_jacobian")
    jac_t = np.empty((d, p))
    for cols in chunks(np.arange(d), chunk_size(params)):
        directions = np.zeros((cols.size, d))
        directions[np.arange(cols.size), cols] = 1.0
        jac_t[cols] = grad_tangents(
            spec, params, subject.x, subject.y, directions.reshape((cols.size, *subject.x.shape))
        )
    return jac_t.T


def spectral_norm_sq(matrix: np.ndarray) -> float:
    """Largest eigenvalue of M^T M, exact up to rounding: eigvalsh of the Gram matrix."""
    if not matrix.size:
        return 0.0
    return max(0.0, float(np.linalg.eigvalsh(matrix.T @ matrix)[-1]))


def fim_subject(
    spec: ModelSpec, params: ParamSet, subject: SubjectRecord, sigma: float
) -> FimReport:
    """Per-subject Fisher information sub-matrix J^T J / sigma^2."""
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be finite and positive, got {sigma}")
    jac = input_jacobian(spec, params, subject)
    fim = (jac.T @ jac) / (sigma * sigma)
    fil = np.sqrt(spectral_norm_sq(jac)) / sigma
    diag = np.clip(np.diag(fim), 0.0, None)
    return FimReport(subject.id, fim, fil, np.sqrt(diag))


def jacsens_subject(spec: ModelSpec, params: ParamSet, subject: SubjectRecord) -> JacSensReport:
    """The raw input Jacobian of the parameter gradient with its two norms."""
    jac = input_jacobian(spec, params, subject)
    spectral = np.sqrt(spectral_norm_sq(jac))
    frob = float(np.linalg.norm(jac))
    return JacSensReport(subject.id, jac, spectral, frob)


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------


def as_plane(values: np.ndarray) -> np.ndarray:
    """The 2-d view of a subject-shaped array: a vector as one row, a
    (1, h, w) image as its (h, w) plane; a matrix is returned as it is."""
    if values.ndim == 1:
        return values[None, :]
    if values.ndim == 3 and values.shape[0] == 1:
        return values[0]
    if values.ndim != 2:
        raise ConfigError(f"no 2-d view of an array of shape {values.shape}")
    return values


def rank_subjects(
    dataset,
    spec: ModelSpec,
    params: ParamSet,
    sigma: float | None = None,
    clip: float | None = None,
) -> list[PlisReport]:
    """Direct-route PLIS reports by descending PLIS norm (ties broken by id)."""
    subjects = list(dataset)
    if not subjects:
        raise ConfigError("rank_subjects: empty dataset")
    reports = plis_reports(spec, params, subjects, sigma=sigma, clip=clip)
    return sorted(reports, key=lambda r: (-r.subject_plis_norm, r.subject_id))
