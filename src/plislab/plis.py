"""Per-subject privacy loss, the PLIS matrix, FIM/FIL and JacSens.

The subject-level privacy loss is the squared per-sample parameter
gradient norm over the noise variance (the gradient signal alone in the
non-private setting).  Its gradient with respect to the subject's input
is (2/sigma^2) J^T g, with g the gradient and J = dg/dx, computed by two
routes that must agree:

  * direct:   J^T u_i with the closed-form row cotangent u_i = 2 w_i g_i,
    the derivative of w_i ||g_i||^2, where w_i = 1/sigma^2 except where
    the clip saturates (||g_i||^2 > C^2): the clipped PL is C^2 / sigma^2
    there, flat in g, and w_i is 0, so u_i is exactly 0;
  * expanded: (2/sigma^2) * g^T (dg/dx) as a vector-Jacobian product with
    the left factor g as the constant cotangent; when clipped, the left
    factor is clip(g), and the clip's pullback
    (dpsgd.clip_differentiable) carries it to the unclipped rows.

So the two routes derive the clipped row cotangent independently: one
from the saturation test on ||g||^2, the other from the clip's
derivative.  Both seed a backward pass to the input with their row
cotangents at models.attach_sample's gradient node, whose rule turns the
cotangent c reaching the rows into J^T c by a tape-free
forward-over-reverse walk.

The full input Jacobian J needed for the FIM and JacSens is only
materialized for desk-scale models (dimension guard), which is exactly
the cost contrast the PLIS route avoids.  It is forward-mode and
tape-free: models.grad_tangents carries a chunk of input directions e_j
as tangents through the first-order kernels and returns the columns
J[:, j].  It builds no graph.

Batch axis: subjects are analysed models.chunk_size() at a time on one graph.
Subject i's privacy loss depends only on its own row of the gradient node
and of X, so one backward pass to X seeded with every subject's row
cotangent returns every subject's PLIS in its own row: one backward pass
per chunk, not per subject.  Each chunk is stacked and checked once
(models.stack_batch), which names a ragged input by its place in the
whole list.  One chunk's arrays are alive at a time: its graph, rows and
J^T u are dropped before the next chunk is stacked.  A call of more than
one chunk keeps one models.Workspace for them, which hands out only the
arrays of at least WORK_ENTRIES entries (the patch matrices, the rows and
the conv adjoints' grids), reused from chunk to chunk so that no chunk
faults their pages in again; a call of one chunk makes none.  No report
holds a view of it.  The input Jacobian stacks the subject once, as a
one-sample Batch, and each chunk of up to models.chunk_size() input
directions runs that sample's forward pass once, its records broadcast
over the chunk's directions.

A PL, PLIS, PLIS norm, Jacobian or Fisher information that is not
finite (a gradient that overflows, or a sigma so small that dividing by
sigma^2 does) is a DataFormatError naming the subject, never a number in
a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Workspace, backward
from .datasets import SubjectRecord
from .dpsgd import check_sigma, clip_differentiable, clip_factor, refuse_dropped_row
from .errors import ConfigError, DataFormatError, DimensionGuardError
from .models import (
    ModelSpec,
    ParamSet,
    attach_sample,
    chunk_size,
    chunks,
    grad_tangents,
    stack_batch,
)

MODE_PRIVATE = "private"
MODE_NON_PRIVATE = "non-private"

# largest dimension of any materialized Jacobian/FIM factor (J is p x d,
# the FIM is d x d; both dims must stay desk-scale)
DIMENSION_GUARD = 4096

# The smallest array, in entries (2^16, 512 KiB), that a call of several
# chunks takes from its Workspace: on the CLI's CNN at chunks of 6, the
# patch matrices, the rows and the conv adjoints' grids; smaller arrays are
# allocated per chunk.  On a 2-vCPU x86-64 VM, one BLAS thread, an ood-rank
# ranking (8 chunks) peaked 8.69 MiB above its start (tracemalloc) and took
# 446-2,250 minor faults at this rule, against 9.86 MiB at 2^15 entries,
# 9.62 MiB at 2^17, 10.85 MiB with every array taken, and 8.03 MiB but up
# to 6,972 faults with no workspace (each chunk faults its pages in again).
WORK_ENTRIES = 1 << 16


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


def _refuse_non_finite(subjects, rows: np.ndarray, what: str) -> None:
    """Raise DataFormatError naming the first subject whose row of rows, one
    per subject, holds an entry that is not finite.  One pass over all the
    entries; the row is looked for only when that pass fails."""
    if not np.isfinite(rows).all():
        finite = np.isfinite(rows.reshape(len(subjects), -1)).all(axis=1)
        subject = subjects[int(np.argmin(finite))]
        raise DataFormatError(f"subject {subject.id!r}: its {what} is not finite")


def plis_reports(
    spec: ModelSpec,
    params: ParamSet,
    subjects,
    sigma: float | None = None,
    clip: float | None = None,
    expanded: bool = False,
) -> list[PlisReport]:
    """PLIS of every subject, in order, by the direct or the expanded route.

    Each chunk of models.chunk_size() subjects shares one graph and one
    backward pass to X.  The direct route seeds the gradient node with the
    rows u_i = 2 w_i g_i, w_i = 1 / sigma^2, or 0 where the clip saturates;
    the expanded one seeds it with the rows g_i, or clipped with the
    clip's pullback of the clipped rows, and scales by 2 / sigma^2.  Both
    take PL_i as ||clip(g_i)||^2 / sigma^2.  A call of more than one chunk
    takes the chunks' large arrays from one Workspace; a call of one chunk
    makes none.
    """
    if sigma is not None:
        check_sigma(sigma)
    subjects, size = list(subjects), chunk_size(params)
    work = Workspace(WORK_ENTRIES) if len(subjects) > size else None
    reports = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused
        for first in range(0, len(subjects), size):
            reports += _chunk_reports(spec, params, subjects[first : first + size], first,
                                      sigma, clip, expanded, work)
    return reports


def _chunk_reports(
    spec: ModelSpec, params: ParamSet, part: list, first: int, sigma: float | None,
    clip: float | None, expanded: bool, work: Workspace | None,
) -> list[PlisReport]:
    """plis_reports of one chunk, part, whose first subject is the call's
    subject number first; its graph, rows and J^T u die on return, before
    the next chunk is stacked."""
    scale = 1.0 if sigma is None else 1.0 / (sigma * sigma)
    batch = stack_batch(spec, [s.x for s in part], [s.y for s in part], first)
    sample = attach_sample(spec, params, batch, work)
    rows = sample.grads.data
    if clip is not None:
        refuse_dropped_row(part, rows, clip)
    if expanded:
        # the constant left factor: the (clipped) rows seed the pass
        left, seed = rows, rows
        if clip is not None:
            left, pullback = clip_differentiable(rows, clip)
            seed = pullback(left)
        (gx,) = backward(sample.grads, [sample.x], cotangent=seed)
        pl = scale * np.square(left).sum(axis=1)
        plis = 2.0 * scale * gx.data
    else:
        # ||clip g||^2 = min(||g||^2, C^2) is flat in g once it saturates
        weights, pl = np.full(len(part), scale), (rows * rows).sum(axis=1)
        if clip is not None:
            weights[pl > clip * clip] = 0.0
            pl = np.square(rows * clip_factor(rows, clip)).sum(axis=1)
        (gx,) = backward(sample.grads, [sample.x], cotangent=(rows * 2.0) * weights[:, None])
        pl, plis = scale * pl, gx.data
    norms = np.array([np.linalg.norm(m) for m in plis])
    _refuse_non_finite(part, pl, "privacy loss")
    _refuse_non_finite(part, plis, "PLIS")
    _refuse_non_finite(part, norms, "PLIS norm")
    mode = MODE_NON_PRIVATE if sigma is None else MODE_PRIVATE
    return [PlisReport(s.id, float(v), m, float(n), mode, sigma)
            for s, v, m, n in zip(part, pl, plis, norms)]


def plis_direct(
    spec: ModelSpec,
    params: ParamSet,
    subject: SubjectRecord,
    sigma: float | None = None,
    clip: float | None = None,
) -> PlisReport:
    """PLIS by backpropagation of the privacy loss to the input."""
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


def deviation(reference: PlisReport, other: PlisReport, x) -> float:
    """Largest |reference - other| PLIS entry over max(max |reference|, PL / max |x|).

    PL / max |x| is an absolute floor of the size dPL/dx takes where PL
    varies with x.  A subject whose clipped gradient is saturated has a
    PL that is flat in x: its direct PLIS is exactly 0 and its expanded
    PLIS is roundoff, which measured against itself would read as
    disagreement.
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
            "take one vector-Jacobian product per subject."
        )


def input_jacobian(spec: ModelSpec, params: ParamSet, subject: SubjectRecord) -> np.ndarray:
    """J = d(grad_theta loss)/dx, materialized as a p x d matrix.

    Forward mode: the subject is stacked once, as a one-sample Batch, and
    each call of models.grad_tangents takes it with up to
    models.chunk_size() unit directions e_j, runs its forward pass once and
    returns the columns J[:, j].  No graph is built.  Relu masks are
    constant along every direction, so it is the J whose transpose the
    PLIS routes apply.
    """
    p, shape = params.count, subject.x.shape
    d = math.prod(shape)
    _guard(p, d, "input_jacobian")
    # a subject without entries is checked too
    batch = stack_batch(spec, [subject.x], [subject.y])
    jac_t = np.empty((d, p))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for cols in chunks(range(d), chunk_size(params)):
            n = len(cols)
            directions = np.eye(n, d, cols.start).reshape((n, *shape))
            jac_t[cols.start : cols.stop] = grad_tangents(spec, params, batch, directions)
    _refuse_non_finite([subject], jac_t, "input Jacobian")
    return jac_t.T


def _top_eigenvalue(gram: np.ndarray) -> float:
    """Largest eigenvalue of a finite Gram matrix M^T M (0 if it is empty), by eigvalsh."""
    return max(0.0, float(np.linalg.eigvalsh(gram)[-1])) if gram.size else 0.0


def spectral_norm_sq(matrix: np.ndarray) -> float:
    """Largest eigenvalue of M^T M, exact up to rounding: eigvalsh of the Gram
    matrix.  inf where the Gram matrix is not finite: an entry of it that
    overflows bounds its largest eigenvalue from below."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = matrix.T @ matrix
    return _top_eigenvalue(gram) if np.isfinite(gram).all() else np.inf


def fim_subject(
    spec: ModelSpec, params: ParamSet, subject: SubjectRecord, sigma: float
) -> FimReport:
    """Per-subject Fisher information sub-matrix J^T J / sigma^2, J^T J formed once."""
    check_sigma(sigma)
    jac = input_jacobian(spec, params, subject)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        gram = jac.T @ jac
        fim = gram / (sigma * sigma)
    # a finite FIM has a finite Gram matrix and bounds the FIL: its square is
    # at most the FIM's trace
    _refuse_non_finite([subject], fim, "Fisher information")
    fil = np.sqrt(_top_eigenvalue(gram)) / sigma
    # a Gram diagonal is a sum of squares, never -0.0: np.clip's bits
    diag = np.maximum(np.diagonal(fim), 0.0)
    return FimReport(subject.id, fim, fil, np.sqrt(diag))


def jacsens_subject(spec: ModelSpec, params: ParamSet, subject: SubjectRecord) -> JacSensReport:
    """The raw input Jacobian of the parameter gradient with its two norms."""
    jac = input_jacobian(spec, params, subject)
    spectral = np.sqrt(spectral_norm_sq(jac))
    _refuse_non_finite([subject], np.array(spectral), "Jacobian's Gram matrix J^T J")
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
