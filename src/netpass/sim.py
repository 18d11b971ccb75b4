"""Closed-loop simulation of the gain-augmented diffusively-coupled network.

The loop couples vertex agents through edge controllers over the graph's
incidence matrix E and applies the synthesized passivating feedback:

    zeta = E^T y,      u = -E mu - E diag(beta) zeta - diag(alpha) y

Agents are affine (x' = p x + q u + g, y = x) and static edges linear, so with
K = Q(0) = diag(alpha) + E diag(beta + w) E^T (``passivation.coupling_matrix``)
``ClosedLoopSystem`` builds the field once, [A | B] held as one matrix acting
on [x, tanh(eta_sat)], and keeps the tanh edges' end vertices beside it
(E_sat, their incidence columns, is never formed):

    x' = A x + B tanh(eta_sat) + g,   A = diag(p) - diag(q) K,  B = -diag(q) E_sat,
    eta_sat' = E_sat^T x.

A static edge has no memory, so the loop's state is z = [x, eta_sat], as
wide as [A | B]: a static edge's eta is never stepped, stored or checked for
blowup, and comes back from eta0, unchanged, only in the ``Trajectory``.

``simulate`` integrates z by classic fixed-step fourth-order Runge-Kutta in
blocks of ``_BLOCK`` samples through one buffer of ``_BLOCK + 1`` rows, and
hands each block's kept rows, straight from it, to at most one recorder, the
only way a run's samples leave it: the ``Trajectory`` holds the final sample
alone.  The field's arithmetic is written once, in ``_field``, which
``ClosedLoopSystem.rate`` and the stepping loop both call on views taken
once per run: each RK4 stage writes its input into one stage buffer and
tanh overwrites that buffer's eta half in place, so the buffer itself is
the [x, tanh(eta_sat)] the matvec reads.  Blowup and steadiness are
checked once per block, and the run ends where a per-step check would.  The
default step keeps every stable mode inside RK4's stability region, its
norms read from n x n Laplacians (``_default_step``).
A run counts as steady when the agent state rates and the controller output
rates stay below a tolerance over a sustained window; the integrator
controller's internal state may keep ramping (its output saturates, so the
loop still settles), which is exactly what happens on edges that hold a
nonzero relative output at steady state.

Once every tanh edge is deep (|eta| >= ``_DEEP``, where float64 tanh is
exactly +-1) the loop is linear, with one equilibrium x* per sign pattern.
A block that starts there first asks ``_Certificate`` for a proof, from A's
modes, that RK4's later rows and stage inputs all stay deep with the same
signs and so settle on x*; when it holds the run ends at that sample,
converged, with y_ss = x*.  Every row ``simulate`` hands out is RK4's own.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowupError, as_vector, check_counts
from .passivation import coupling_matrix

__all__ = ["ClosedLoopSystem", "Trajectory", "simulate"]

_BLOWUP_LIMIT = 1e12
_STEADY_WINDOW = 100
_BLOCK = 32  # samples stepped between two steadiness and blowup checks
_DEEP = 20.0  # |eta| from which np.tanh(eta) is exactly +-1 in float64 (it is from 18.99 on)
_ALIGN = 64  # bytes; the rate's matvec measured 13% slower 16 or 48 bytes past this boundary
STEADY_TOL = 1e-8  # default threshold on the worst state/output rate
HORIZON = 5000.0  # default t_max
MIN_STEP = 1e-4  # the default step's floor


class ClosedLoopSystem:
    """An ``AgentBank``, ``ControllerBank`` and ``GainDesign`` on a graph, and the loop's pieces.

    The loop's state is ``z = [x, eta_sat]``: only the tanh edges carry a
    controller state.  Derived once and read-only: ``operator``, the
    ``[A | B]`` acting on ``[x, tanh(eta_sat)]``, as wide as z, on an
    ``_ALIGN``-byte boundary; and ``heads_sat``, ``tails_sat``, the tanh
    edges' end vertices.
    """

    def __init__(self, graph, agents, controllers, gain):
        check_counts(graph, agents, controllers)
        # coupling_matrix checks alpha and the summed edge gains, but beta + w
        # would broadcast a length-1 beta over every edge.
        as_vector(gain.beta, graph.n_edges, "beta")
        self.graph, self.agents, self.controllers, self.gain = graph, agents, controllers, gain
        n, sat, q = graph.n_vertices, controllers.saturated, agents.q
        K = coupling_matrix(np.zeros(n), gain.alpha, gain.beta + controllers.w, graph)
        self.heads_sat, self.tails_sat = heads, tails = graph.heads[sat], graph.tails[sat]
        self.operator = _aligned_empty((n, n + heads.size))
        self.operator[:, :n], self.operator[:, n:] = np.diag(agents.p) - q[:, None] * K, 0.0
        # B = -diag(q) E_sat: column k holds -q at its head and q at its tail.
        k = n + np.arange(heads.size)
        self.operator[heads, k], self.operator[tails, k] = -q[heads], q[tails]
        for arr in (self.operator, self.heads_sat, self.tails_sat):
            arr.setflags(write=False)
        self._static = (controllers.w[~sat], graph.heads[~sat], graph.tails[~sat])

    def rate(self, z, z_dot, xmu):
        """Write ``z = [x, eta_sat]``'s rate into ``z_dot`` and [x, tanh(eta_sat)] into ``xmu``."""
        n = self.graph.n_vertices
        xmu[:n] = z[:n]
        _field(self.operator, self.agents.g, self.heads_sat, self.tails_sat,
               xmu, xmu[:n], xmu[n:], z[n:], z_dot[:n], z_dot[n:])

    def steady_rate(self, z_dots, xmus, work):
        """Worst state and output rate of each row of ``rate``'s results; reads xmus' mu columns.

        A tanh edge's output rate is (1 - mu^2) zeta, a static edge's w (x_dot_head - x_dot_tail).
        Formed in ``work``, a flat buffer of at least 2 * rows * (width + static edges) entries.
        """
        (rows, width), n, (w, heads, tails) = z_dots.shape, self.graph.n_vertices, self._static
        rates = work[:rows * (width + w.size)].reshape(rows, -1)
        rates[:, :width] = z_dots  # the saturated edges' z_dots are their zeta
        factor = work[rates.size:][:rows * (width - n)].reshape(rows, -1)
        rates[:, n:width] *= np.subtract(1.0, np.multiply(xmus[:, n:], xmus[:, n:], factor), factor)
        if w.size:  # mode "clip": take's default "raise" would buffer its output
            static, tail = rates[:, width:], work[rates.size:][:rows * w.size].reshape(rows, -1)
            np.subtract(np.take(z_dots, heads, 1, static, "clip"),
                        np.take(z_dots, tails, 1, tail, "clip"), static)
            np.multiply(w, static, static)
        return np.abs(rates, rates).max(axis=1)


def _field(operator, g, heads, tails, xmu, x, mu, eta, x_dot, eta_dot):
    """The loop's field: mu = tanh(eta), x_dot = [A | B] xmu + g, eta_dot = x[heads] - x[tails].

    ``xmu`` is the contiguous vector [x, mu] and ``x``, ``mu`` its halves,
    already holding x; ``eta`` may be ``mu`` itself, which tanh then overwrites.
    """
    np.tanh(eta, mu)
    np.add(np.dot(operator, xmu, x_dot), g, x_dot)
    np.subtract(x[heads], x[tails], eta_dot)


def _aligned_empty(shape):
    """An uninitialised float64 array whose data starts on an ``_ALIGN``-byte boundary."""
    size = 8 * int(np.prod(shape))
    raw = np.empty(size + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start: start + size].view(np.float64).reshape(shape)


@dataclass(frozen=True)
class Trajectory:
    """A closed-loop run's final sample and outcome; its state arrays are read-only.

    ``times`` is ``[t_end]`` and the state arrays have one column: the
    samples before it reach only ``simulate``'s recorder.  A run that a
    ``_Certificate`` ended names its last sample in ``certified_at``; its
    ``y_ss`` is then the certified equilibrium x*, not that sample's x.
    """

    times: np.ndarray
    x_states: np.ndarray
    eta_states: np.ndarray
    converged: bool
    y_ss: np.ndarray  # None unless converged
    residual: float
    certified_at: int = None  # None unless a certificate ended the run


def _default_step(system):
    """Default step inside RK4's stability region at every saturation pattern.

    The Jacobian on [x, eta_sat] is J(D) = diag(A, 0) + [[0, B D], [E_sat^T, 0]]
    with D = diag(1 - tanh(eta_sat)^2) in [0, 1].
    The second term's 2-norm is max(||B D||, ||E_sat||), so
    r = ||A|| + max(||B||, ||E_sat||) >= ||J(D)|| >= rho(J(D)) for every D, and
    dt = 2.5 / r keeps every dt * lambda within 2.5 of 0.  Steady states are
    exact fixed points of the RK4 map, so a large step only costs transient
    accuracy.  The cap covers r = 0 (edgeless integrators).  E_sat is never
    formed: ||E_sat||^2 and ||B||^2 are the top eigenvalues of the n x n
    L_sat = E_sat E_sat^T, the tanh edges' Laplacian, and B B^T = diag(q) L_sat diag(q).
    """
    n, q = system.graph.n_vertices, system.agents.q
    L_sat = system.graph.weighted_laplacian(system.controllers.saturated.astype(float))
    top = max(np.linalg.eigvalsh(G)[-1] for G in (q[:, None] * L_sat * q, L_sat))
    r = np.linalg.norm(system.operator[:, :n], 2) + np.sqrt(max(top, 0.0))
    return min(0.25, max(MIN_STEP, 2.5 / max(r, 1e-12)))


class _Certificate:
    """Proof that RK4 on the all-deep loop never changes a sign again and settles on x*.

    With every tanh edge deep, tanh(eta_sat) is s = sign(eta_sat) and the
    loop is x' = A x + b, b = B s + g, eta_sat' = E_sat^T x, whose equilibrium
    is x* = -A^-1 b, zeta* = E_sat^T x*.  One RK4 step of size h maps x to
    M x + N b and eta to eta + E_sat^T (N x + C b), with
    N = h (I + hA/2 + (hA)^2/6 + (hA)^3/24), M = I + N A and
    C = h^2 (I/2 + hA/6 + (hA)^2/24); so M x* + N b = x* and N x* + C b = h x*.
    Write A = V diag(lam) V^-1 and P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24:
    M = V diag(P(h lam)) V^-1 and N V = V diag((P - 1) / lam).  From the
    checked state (x_0, eta_0) and c = V^-1 (x_0 - x*), k steps later

        x_k   = x* + V diag(P^k) c,
        eta_k = eta_0 + k h zeta* - E_sat^T V diag((1 - P^k) / lam) c,

    and the eta parts of step k's stage inputs eta + (h/2) k1, eta + (h/2) k2
    and eta + h k3 are eta_k + (h/2, h/2, h) zeta* + E_sat^T V diag(sigma_j P^k) c,
    sigma_j = h/2, (h/2)(1 + h lam/2), h (1 + h lam/2 + (h lam)^2/4).  If every
    |P(h lam)| < 1, then |1 - P^k| <= 2 and |P^k| <= 1, so once s * zeta* >= 0 and

        s_e eta_e - sum_i |(E_sat^T V)_ei| w_i |c_i| >= _DEEP,  w_i = 2/|lam_i| + max_j |sigma_j|,

    on every edge, every later row and stage input has tanh(eta_sat) = s:
    RK4 steps this linear loop for ever, and x_k tends to x*.  One eig of A
    per run; each check is O(n^2 + n m_sat).
    """

    def __init__(self, system, dt):
        n = system.graph.n_vertices
        lam, V = np.linalg.eig(system.operator[:, :n])
        z = dt * lam
        P = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
        # The bounds are relative, and each failure only leaves the run to RK4:
        # - |P| <= 1 - 1e-9: a mode whose |P| is near 1 or above it is not
        #   damped, or so slowly that rounding in lam decides whether it is;
        # - |lam| > 1e-9 max |lam|: a singular A has no single x*, and a nearly
        #   singular one puts x* = -A^-1 b at the mercy of rounding;
        # - cond(V) < 1e8: a nearly defective A's modes cancel, so c = V^-1 (x - x*)
        #   and the bound built on it lose their digits.
        self.applies = bool((np.abs(P) <= 1.0 - 1e-9).all()
                            and (np.abs(lam) > 1e-9 * np.abs(lam).max()).all()
                            and np.linalg.cond(V) < 1e8)
        if not self.applies:
            return  # ``fixed_point`` reads nothing below
        V_inv = np.linalg.inv(V)
        heads, tails = system.heads_sat, system.tails_sat
        sigma = dt * np.abs([np.full_like(z, 0.5), 0.5 + z / 4.0, 1.0 + z / 2.0 + z * z / 4.0])
        self.lam, self.V, self.V_inv, self.heads, self.tails = lam, V, V_inv, heads, tails
        self.VB, self.Vg = V_inv @ system.operator[:, n:], V_inv @ system.agents.g
        self.weights = np.abs(V[heads] - V[tails]) * (2.0 / np.abs(lam) + sigma.max(axis=0))

    def fixed_point(self, z):
        """x* if the certificate holds at the deep state ``z = [x, eta_sat]``, else None."""
        if not self.applies:
            return None
        n = self.lam.size
        x, eta = z[:n], z[n:]
        s = np.sign(eta)
        d = (self.VB @ s + self.Vg) / self.lam  # -V^-1 x*
        x_star = -(self.V @ d).real
        zeta = x_star[self.heads] - x_star[self.tails]
        margin = s * eta - self.weights @ np.abs(self.V_inv @ x + d)
        return x_star if (s * zeta >= 0.0).all() and (margin >= _DEEP).all() else None


def simulate(system: ClosedLoopSystem, x0=None, eta0=None, dt=None, t_max=None,
             steady_tol=STEADY_TOL, window=_STEADY_WINDOW, seed=0, record=None):
    """Integrate the closed loop until steady, blown up, or out of time.

    RK4 steps ``z = [x, eta_sat]`` in blocks of ``_BLOCK`` samples from
    sample 1, the last cut short by the horizon, from row 0 of a buffer of
    ``_BLOCK + 1`` rows into rows 1.., copying the last kept row to row 0
    after each block.  After each block one pass over the new rows finds the
    first blown-up one and their steady metrics, and the run stops at the
    first sample that ends it, dropping the rows after.  A block that starts
    with every tanh edge deep (every block, on a loop without tanh edges)
    first checks ``_Certificate``: if it proves that RK4 keeps every sign from
    here on and settles on the deep loop's equilibrium x*, the run ends at
    this sample, converged, with ``Trajectory.certified_at`` naming it,
    ``y_ss`` = x* and ``residual`` the worst rate at [x*, eta]; so the
    trajectory's final sample is not y_ss.  Every row handed out is RK4's.

    The blocks, and so where the certificate is checked, depend on the loop
    alone.  A recorder gets sample 0, then each block's kept rows before the
    next block steps (a blowup raises first), as ``record(times, rows)``:
    the samples' ``k * dt`` and a view of their [x, eta_sat] buffer rows,
    valid for the call.  Recorded or not, the ``Trajectory`` is bitwise the
    same, and a blowup raises the same message.

    Parameters
    ----------
    x0, eta0 : array or None
        Initial conditions, which must be finite.  Missing agent states are
        drawn uniformly from [min anchor - 10, max anchor + 10] with the given
        seed; missing controller states start at zero.  A static edge's eta
        is never stepped: the ``Trajectory`` holds its eta0.
    dt, t_max : float or None
        Step size and horizon, positive, with dt and t_max / dt finite.  The
        default step keeps every stable mode in RK4's stability region
        (``_default_step``); the default horizon is ``HORIZON`` time units
        with early exit once steady.
    steady_tol : float
        Threshold on the worst state/output rate for steadiness, in
        [0, inf]: 0 runs the whole horizon (no rate is below it), and inf
        stops at the first full window.
    window : int
        Number of consecutive steady samples required before stopping.
    record : callable or None
        The recorder, if any.  Either way the ``Trajectory`` holds the final
        sample alone: ``times == [t_end]`` and one state column each.

    Raises
    ------
    NumericalBlowupError
        If any stepped state after the initial one exceeds 1e12 in magnitude
        or is not finite.
    """
    n, m, sat = system.graph.n_vertices, system.graph.n_edges, system.controllers.saturated
    dt = _default_step(system) if dt is None else dt
    t_max = HORIZON if t_max is None else t_max
    if not 0.0 < dt < np.inf or t_max <= 0.0 or window < 1:
        raise ValueError("dt, t_max and window must be positive, and dt finite")
    if not np.isfinite(t_max / dt):
        raise ValueError(f"t_max / dt must be finite, got {t_max:g} / {dt:g}")
    # no rate is below NaN or a negative tolerance: the run would spend its whole horizon
    if not steady_tol >= 0.0:
        raise ValueError(f"steady_tol must be in [0, inf], got {steady_tol}")
    if x0 is None:
        anchors = system.agents.anchors
        x0 = np.random.default_rng(seed).uniform(anchors.min() - 10.0, anchors.max() + 10.0, n)
    x = as_vector(x0, n, "x0")
    eta = as_vector(np.zeros(m) if eta0 is None else eta0, m, "eta0")

    certificate, y_ss, width = None, None, system.operator.shape[1]
    # One state per row: row 0 holds the last kept sample, rows 1.. each new one.
    rows = np.empty((_BLOCK + 1, width))
    rows[0, :n], rows[0, n:] = x, eta[sat]
    if record is not None:
        record(np.zeros(1), rows[:1])
    # Row 0: the last kept sample's rate; rows 1..: each new sample's rate.
    rates = np.empty((_BLOCK + 1, width))
    xmus = np.empty((_BLOCK + 1, width))
    # The per-block checks' scratch: no check allocates a block-sized array.
    work = np.empty(2 * (_BLOCK + 1) * (width + np.count_nonzero(~sat)))
    system.rate(rows[0], rates[0], xmus[0])
    # Views taken once: each RK4 stage writes its input into `stage` and tanh
    # overwrites the stage's eta half, so `stage` is the field's [x, mu].
    stage, total, k2, k3, k4 = np.empty((5, width))
    stage_x, stage_mu = stage[:n], stage[n:]
    k2_x, k2_eta, k3_x, k3_eta, k4_x, k4_eta = k2[:n], k2[n:], k3[:n], k3[n:], k4[:n], k4[n:]
    views = [(rows[j], rows[j, :n], rows[j, n:], xmus[j], xmus[j, :n], xmus[j, n:],
              rates[j], rates[j, :n], rates[j, n:]) for j in range(_BLOCK + 1)]
    operator, g = system.operator, system.agents.g
    heads, tails = system.heads_sat, system.tails_sat
    metrics = deque(system.steady_rate(rates[:1], xmus[:1], work).tolist(), maxlen=window)
    steady_run = 1 if metrics[0] < steady_tol else 0
    converged = steady_run >= window
    count = 1
    steps_left = int(np.floor(t_max / dt + 1e-9))
    # 0-d arrays: a ufunc takes them faster than Python floats, with the same product.
    half, step, sixth, two = np.array(dt / 2.0), np.array(dt), np.array(dt / 6.0), np.array(2.0)

    while steps_left and not converged:
        block = min(_BLOCK, steps_left)
        # Rows stepped past a blowup are dropped unread, so their overflow is silent.
        with np.errstate(all="ignore"):
            z, k1 = rows[0], rates[0]
            if (np.abs(z[n:]) >= _DEEP).all():
                certificate = certificate or _Certificate(system, dt)
                y_ss = certificate.fixed_point(z)
                if y_ss is not None:
                    break
            for j in range(1, block + 1):
                np.add(z, np.multiply(half, k1, stage), stage)
                _field(operator, g, heads, tails, stage, stage_x, stage_mu, stage_mu,
                       k2_x, k2_eta)
                np.add(z, np.multiply(half, k2, stage), stage)
                _field(operator, g, heads, tails, stage, stage_x, stage_mu, stage_mu,
                       k3_x, k3_eta)
                np.add(z, np.multiply(step, k3, stage), stage)
                _field(operator, g, heads, tails, stage, stage_x, stage_mu, stage_mu,
                       k4_x, k4_eta)
                # (dt / 6) * (((k1 + 2 k2) + 2 k3) + k4), summed in that order
                np.add(k1, np.multiply(two, k2, total), total)
                np.add(total, np.multiply(two, k3, stage), total)
                np.multiply(sixth, np.add(total, k4, total), total)
                row, row_x, row_eta, xmu, xmu_x, mu, k1, k1_x, k1_eta = views[j]
                z = np.add(z, total, row)
                xmu_x[...] = row_x
                _field(operator, g, heads, tails, xmu, xmu_x, mu, row_eta, k1_x, k1_eta)
            # Written so that a NaN, which fails every comparison, counts as blown up.
            magnitude = np.abs(rows[1: block + 1], work[:block * width].reshape(block, width))
            blown = ~(magnitude.max(axis=1) <= _BLOWUP_LIMIT)
            steady = system.steady_rate(rates[1: block + 1], xmus[1: block + 1], work)
        bad = int(blown.argmax()) if blown.any() else block
        start = count
        for metric in steady[:bad].tolist():
            metrics.append(metric)
            count += 1
            steady_run = steady_run + 1 if metric < steady_tol else 0
            if steady_run >= window:
                converged = True
                break
        if bad < block and not converged:
            raise NumericalBlowupError(f"state magnitude exceeded {_BLOWUP_LIMIT:g} "
                                       f"at t = {count * dt:.6g}")
        if record is not None:
            record(np.arange(start, count) * dt, rows[1: 1 + count - start])
        rows[0], rates[0] = rows[count - start], rates[block]
        steps_left -= block

    x_states, eta_states = rows[0, :n, None].copy(), eta[:, None].copy()
    eta_states[sat, 0] = rows[0, n:]  # a static edge's eta stays eta0's
    x_states.setflags(write=False)
    eta_states.setflags(write=False)
    certified_at = None
    if y_ss is not None:  # certified: the residual is the worst rate at [x*, eta]
        certified_at, converged = count - 1, True
        rows[1, :n], rows[1, n:] = y_ss, rows[0, n:]
        system.rate(rows[1], rates[1], xmus[1])
        metrics = system.steady_rate(rates[1:2], xmus[1:2], work)
    elif converged:
        y_ss = rows[0, :n].copy()
    return Trajectory(np.array([(count - 1) * dt]), x_states, eta_states, converged, y_ss,
                      float(np.max(metrics)), certified_at)
