"""Per-round theory probes, empirical estimation of the smoothness/variance/
norm constants, and checks of the descent, reference-swap, and combined
per-round bounds.

A :class:`RoundProbe` takes one client round's checkpoints during
training; its ``record()`` is the ``probe`` entry of the client's log
record, which is all the estimation and the checks below read.

The constants are estimated as maxima over observed probe records, i.e.
lower bounds on the true suprema. A reported "holds" is therefore evidence
that the inequality was satisfied on this run, not a proof; every report
carries the inputs used so it can be recomputed offline from the log alone.

Checked inequalities, per client and round, with S = sum_i ||grad L_i||^2
over the E local epochs:

    descent      E[L_E]  <= L_0 - (eta - L1 eta^2 / 2) S + L1 E eta^2 sigma^2 / 2
    swap         E[L_E'] <= E[L_E] + 2 mu eta L2 P R^3 Lrad^2
    combined     E[L_E'] <= L_0 - (eta - L1 eta^2 / 2) S
                            + L1 E eta^2 sigma^2 / 2 + 2 mu eta L2 P R^3 Lrad^2

with the step-size and coupling-weight conditions

    eta < 2 (S - 2 mu L2 P R^3 Lrad^2) / (L1 (S + E sigma^2))
    mu  < S / (2 L2 P R^3 Lrad^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from . import sslnet
from .errors import DegenerateInputError, InsufficientProbesError
from .numkit import Matrix, RngStream
from .sslnet import ClientModel

if TYPE_CHECKING:
    from .federation import RoundLog

HOLD_TOL = 1e-9


class RoundProbe:
    """The probe record of one client round. A checkpoint (full-shard loss
    and gradient, parameters, alignment representations) is taken at the
    round start and after every local epoch, through ``after_epoch``, the
    training loop's epoch hook. Probes draw from their own streams and never
    change the model, so a probed run trains exactly as an unprobed one.

    ``rng`` is the client's stream for the round. sigma^2 is the variance of
    the minibatch gradients about their mean at the round start, over
    ``batches``, the partition the first epoch will use."""

    def __init__(self, model: ClientModel, shard: Matrix, obj: sslnet.Objective,
                 rng: RngStream, batches: Sequence[np.ndarray]):
        self._shard, self._obj = shard, obj
        self._rng = rng.with_purpose("probe")
        self._losses, self._grads, self._params, self._phis = [], [], [], []
        self.after_epoch(-1, model)  # the round-start checkpoint
        self._sigma2 = 0.0
        if len(batches) > 1:
            stack = np.stack([sslnet.loss_and_grad(model, shard[idx], obj, rng.sub(f"sigma{b}"))[3]
                              for b, idx in enumerate(batches)])
            self._sigma2 = float(np.mean(np.sum((stack - stack.mean(axis=0)) ** 2, axis=1)))

    def after_epoch(self, epoch: int, model: ClientModel) -> None:
        total, _, _, grad = sslnet.loss_and_grad(model, self._shard, self._obj, self._rng)
        self._losses.append(total)
        self._grads.append(grad)
        self._params.append(model.online)
        self._phis.append(sslnet.representations(model, self._obj.rad,
                                                 clip_radius=self._obj.clip_radius))

    def record(self) -> dict:
        """The log entry: checkpoint losses and gradient norms, the largest
        representation row norm, pairwise Lipschitz ratios and sigma^2."""
        return {
            "losses": self._losses,
            "grad_norms": [float(np.linalg.norm(g)) for g in self._grads],
            "rep_norm_max": float(max(
                np.max(np.sqrt(np.sum(phi * phi, axis=1))) for phi in self._phis
            )),
            "l1_ratios": lipschitz_ratios(self._params, self._grads),
            "l2_ratios": lipschitz_ratios(self._params, self._phis),
            "sigma2": self._sigma2,
        }


@dataclass
class EstimatedConstant:
    value: float
    samples: int
    provenance: str = ""


@dataclass
class AssumptionEstimates:
    """Empirical lower bounds on the assumption constants.

    l1: loss-gradient Lipschitz constant, max ||grad(a)-grad(b)|| / ||a-b||.
    l2: embedding Lipschitz constant on the alignment rows.
    sigma2: minibatch-gradient variance about the full gradient.
    p: expected stochastic-gradient norm (per-epoch means).
    r: representation row norm.
    """

    l1: EstimatedConstant
    l2: EstimatedConstant
    sigma2: EstimatedConstant
    p: EstimatedConstant
    r: EstimatedConstant

    def to_dict(self) -> dict:
        return {
            name: {"value": c.value, "samples": c.samples, "provenance": c.provenance}
            for name, c in (("l1", self.l1), ("l2", self.l2), ("sigma2", self.sigma2),
                            ("p", self.p), ("r", self.r))
        }


@dataclass
class BoundReport:
    which: str  # "lemma1" | "lemma2" | "theorem"
    lhs: float
    rhs: float
    holds: bool
    slack: float
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "which": self.which,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "slack": self.slack,
            "slack_ratio": (self.rhs / self.lhs) if self.lhs > 0 else None,
            "inputs": self.inputs,
        }


def _report(which: str, lhs: float, rhs: float, inputs: dict) -> BoundReport:
    return BoundReport(
        which=which,
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + HOLD_TOL),
        slack=rhs - lhs,
        inputs=inputs,
    )


def lipschitz_ratios(
    points: Sequence[np.ndarray], values: Sequence[np.ndarray]
) -> List[float]:
    """||v_a - v_b|| / ||x_a - x_b|| for every pair a < b in order, skipping
    pairs whose points coincide."""
    ratios = []
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            dx = float(np.linalg.norm(np.asarray(points[a], dtype=float)
                                      - np.asarray(points[b], dtype=float)))
            if dx == 0.0:
                continue
            dv = float(np.linalg.norm(np.asarray(values[a], dtype=float)
                                      - np.asarray(values[b], dtype=float)))
            ratios.append(dv / dx)
    return ratios


def lipschitz_ratio_max(
    points: Sequence[np.ndarray], values: Sequence[np.ndarray]
) -> float:
    """max over pairs of ||v_a - v_b|| / ||x_a - x_b||; the checkpoint-pair
    estimator used for both the gradient and the embedding map."""
    if len(points) < 2:
        raise InsufficientProbesError("need at least two checkpoints")
    ratios = lipschitz_ratios(points, values)
    if not ratios:
        raise InsufficientProbesError("all checkpoint pairs are degenerate (no movement)")
    return max(ratios)


def _probe_records(log: RoundLog) -> List[dict]:
    recs = [r for r in log.client_records() if r.get("probe")]
    if not recs:
        raise InsufficientProbesError(
            "log carries no probe records; rerun with theory probes enabled"
        )
    return recs


def estimate_constants(log: RoundLog) -> AssumptionEstimates:
    """Scan a probed round log and take maxima with provenance."""
    recs = _probe_records(log)

    def scan(extract) -> EstimatedConstant:
        best, where, count = None, "", 0
        for rec in recs:
            for v in extract(rec):
                count += 1
                if best is None or v > best:
                    best = v
                    where = f"round {rec['round']} client {rec['client']}"
        if best is None or count == 0:
            raise InsufficientProbesError("no usable probe samples")
        return EstimatedConstant(float(best), count, where)

    l1 = scan(lambda r: r["probe"]["l1_ratios"])
    l2 = scan(lambda r: r["probe"]["l2_ratios"])
    sigma2 = scan(lambda r: [r["probe"]["sigma2"]])
    p = scan(lambda r: r["epoch_grad_norms"])
    r_hat = scan(lambda r: [r["probe"]["rep_norm_max"]])
    return AssumptionEstimates(l1, l2, sigma2, p, r_hat)


def lemma1_check(
    epoch_losses: Sequence[float],
    epoch_grad_norms: Sequence[float],
    eta: float,
    num_epochs: int,
    est: AssumptionEstimates,
) -> BoundReport:
    """Descent bound for one client-round.

    ``epoch_losses`` must cover checkpoints 0..E (length E+1);
    ``epoch_grad_norms`` epochs 0..E-1 at least.
    """
    if len(epoch_losses) < num_epochs + 1:
        raise InsufficientProbesError(
            f"need {num_epochs + 1} checkpoint losses, got {len(epoch_losses)}"
        )
    if len(epoch_grad_norms) < num_epochs:
        raise InsufficientProbesError(
            f"need {num_epochs} gradient norms, got {len(epoch_grad_norms)}"
        )
    l0 = float(epoch_losses[0])
    le = float(epoch_losses[num_epochs])
    s = float(sum(g * g for g in epoch_grad_norms[:num_epochs]))
    l1 = est.l1.value
    sigma2 = est.sigma2.value
    rhs = l0 - (eta - l1 * eta * eta / 2.0) * s + l1 * num_epochs * eta * eta * sigma2 / 2.0
    return _report("lemma1", le, rhs, {
        "loss_start": l0, "eta": eta, "epochs": num_epochs,
        "grad_norm_sq_sum": s, "l1": l1, "sigma2": sigma2,
    })


def eta_max_lemma1(
    grad_norm_sq_sum: float, num_epochs: int, est: AssumptionEstimates
) -> float:
    """Largest step size for which the descent bound guarantees reduction:
    2 S / (L1 (S + E sigma^2))."""
    s = float(grad_norm_sq_sum)
    l1 = est.l1.value
    sigma2 = est.sigma2.value
    denom = l1 * (s + num_epochs * sigma2)
    if denom <= 0.0:
        raise DegenerateInputError(
            "step-size threshold undefined: zero gradients and zero variance"
        )
    return 2.0 * s / denom


def _coupling(est: AssumptionEstimates, rad_size: int, factor: float = 1.0) -> float:
    """factor * 2 L2 P R^3 Lrad^2, multiplied left to right: the order each
    bound has always used, so reported values keep their bits."""
    return 2.0 * factor * est.l2.value * est.p.value * est.r.value ** 3 * rad_size ** 2


def lemma2_rhs(mu: float, eta: float, est: AssumptionEstimates, rad_size: int) -> float:
    return _coupling(est, rad_size, mu * eta)


def lemma2_check(
    loss_before: float,
    loss_after: float,
    mu: float,
    eta: float,
    est: AssumptionEstimates,
    rad_size: int,
) -> BoundReport:
    """Reference-swap bound: the loss jump when the server reference moves
    from one round's aggregate to the next, weights held fixed."""
    lhs = float(loss_after) - float(loss_before)
    rhs = lemma2_rhs(mu, eta, est, rad_size)
    return _report("lemma2", lhs, rhs, {
        "loss_before": loss_before, "loss_after": loss_after,
        "mu": mu, "eta": eta, "rad_size": rad_size,
        "l2": est.l2.value, "p": est.p.value, "r": est.r.value,
    })


def mu_max_theorem(
    grad_norm_sq_sum: float, est: AssumptionEstimates, rad_size: int
) -> float:
    """Coupling-weight threshold S / (2 L2 P R^3 Lrad^2)."""
    denom = _coupling(est, rad_size)
    if denom <= 0.0:
        raise DegenerateInputError("coupling threshold undefined: zero constants")
    return float(grad_norm_sq_sum) / denom


def theorem_check(
    epoch_losses: Sequence[float],
    epoch_grad_norms: Sequence[float],
    loss_after_swap: float,
    eta: float,
    mu: float,
    num_epochs: int,
    est: AssumptionEstimates,
    rad_size: int,
) -> BoundReport:
    """Combined per-round bound plus the two post-hoc threshold conditions,
    reported as inputs ``eta_ok`` and ``mu_ok``."""
    base = lemma1_check(epoch_losses, epoch_grad_norms, eta, num_epochs, est)
    coupling = lemma2_rhs(mu, eta, est, rad_size)
    lhs = float(loss_after_swap)
    rhs = base.rhs + coupling
    s = base.inputs["grad_norm_sq_sum"]
    try:
        mu_ok = bool(mu < mu_max_theorem(s, est, rad_size))
    except DegenerateInputError:
        mu_ok = False
    eta_num = 2.0 * (s - _coupling(est, rad_size, mu))
    eta_den = est.l1.value * (s + num_epochs * est.sigma2.value)
    eta_ok = bool(eta_den > 0 and eta < eta_num / eta_den)
    inputs = dict(base.inputs)
    inputs.update({
        "mu": mu, "rad_size": rad_size, "coupling_rhs": coupling,
        "eta_ok": eta_ok, "mu_ok": mu_ok,
        "l2": est.l2.value, "p": est.p.value, "r": est.r.value,
    })
    return _report("theorem", lhs, rhs, inputs)


def check_round_log(
    log: RoundLog,
    eta: float,
    mu: float,
    num_epochs: int,
    rad_size: int,
    est: Optional[AssumptionEstimates] = None,
    proximal_form: Optional[str] = None,
) -> List[BoundReport]:
    """One lemma1, lemma2, and theorem report per probed (round, client).

    The swap and combined bounds are derived for the trace-alignment form;
    under any other form they are still evaluated but flagged informational.
    """
    if est is None:
        est = estimate_constants(log)
    informational = proximal_form is not None and proximal_form != "trace_alignment"
    reports: List[BoundReport] = []
    for rec in _probe_records(log):
        probe = rec["probe"]
        where = {"round": rec["round"], "client": rec["client"]}
        if proximal_form is not None:
            where["proximal_form"] = proximal_form
            where["informational"] = informational
        r1 = lemma1_check(probe["losses"], probe["grad_norms"], eta, num_epochs, est)
        r1.inputs.update(where)
        reports.append(r1)
        if "loss_total_swap" in rec:
            r2 = lemma2_check(rec["loss_total_end"], rec["loss_total_swap"],
                              mu, eta, est, rad_size)
            r2.inputs.update(where)
            reports.append(r2)
            r3 = theorem_check(probe["losses"], probe["grad_norms"],
                               rec["loss_total_swap"], eta, mu, num_epochs,
                               est, rad_size)
            r3.inputs.update(where)
            reports.append(r3)
    return reports
