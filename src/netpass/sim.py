"""Closed-loop simulation of the gain-augmented diffusively-coupled network.

The loop couples vertex agents through edge controllers over the graph's
incidence matrix E and applies the synthesized passivating feedback:

    zeta = E^T y,      u = -E mu - E diag(beta) zeta - diag(alpha) y

Agents are affine (x' = p x + q u + g, y = x) and static edges linear, so with
K = Q(0) = diag(alpha) + E diag(beta + w) E^T (``passivation.coupling_matrix``)
the field is built once, with [A | B] held as one matrix acting on
[x, tanh(eta_sat)]:

    x' = A x + B tanh(eta_sat) + g,   A = diag(p) - diag(q) K,  B = -diag(q) E_sat,
    eta_sat' = E_sat^T x,             and a static edge's eta never moves.

``simulate`` integrates the stacked state z = [x, eta] by classic fixed-step
fourth-order Runge-Kutta on preallocated stage buffers, writing each new
state straight into the next row of a row-per-sample table, and returns the
state histories as read-only transposed views of it.  Blowup and steadiness
are checked once per block of samples, and the run ends where a per-step
check would.  The default step keeps every stable mode inside RK4's
stability region (``_default_step``).  A run counts as steady
when the agent state rates and the controller output rates stay below a
tolerance over a sustained window; the integrator controller's internal
state may keep ramping (its output saturates, so the loop still settles),
which is exactly what happens on edges that hold a nonzero relative output
at steady state.

Once every tanh edge is deep (|eta| >= ``_DEEP``, where float64 tanh is
exactly +-1), the loop is exactly linear, and RK4 on it is one fixed affine
map per sign pattern s = sign(eta_sat) (``_DeepMap``).  A block that starts
deep is produced by that map with a few matrix products, then verified: if
any of its rows or RK4 stage inputs left the deep region with sign s, the
block is discarded and stepped by RK4.  So rows before the first affine
block are RK4's bits, and affine rows equal RK4's up to rounding.  This is
the slow tail of runs whose edges hold nonzero relative outputs at steady
state.  Where RK4 on the deep loop is unstable the map is not used.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .agents import AgentBank
from .controllers import ControllerBank
from .errors import DimensionMismatchError, NumericalBlowupError
from .graph import NetworkGraph
from .netopt import build_problem, stationarity_residual
from .passivation import GainDesign, coupling_matrix

__all__ = ["ClosedLoopSystem", "Trajectory", "simulate", "steady_state_residual"]

_BLOWUP_LIMIT = 1e12
_STEADY_WINDOW = 100
_BLOCK = 32  # samples stepped between two steadiness and blowup checks
_DEEP = 20.0  # |eta| from which np.tanh(eta) is exactly +-1 in float64 (it is from 18.99 on)
STEADY_TOL = 1e-8  # default threshold on the worst state/output rate


def _tanh_columns(n, saturated):
    """Columns of z = [x, eta] that hold the tanh edges' states.

    An all-tanh network reads them as a slice of z, not a gather.
    """
    return slice(n, None) if saturated.all() else n + np.flatnonzero(saturated)


@dataclass(frozen=True)
class ClosedLoopSystem:
    """Agents, controllers, a gain design, and the loop's ``[A | B]`` operator."""

    graph: NetworkGraph
    agents: AgentBank
    controllers: ControllerBank
    gain: GainDesign
    operator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.graph.n_vertices
        if len(self.agents) != n:
            raise DimensionMismatchError(f"{len(self.agents)} agents for {n} vertices")
        if len(self.controllers) != self.graph.n_edges:
            raise DimensionMismatchError(
                f"{len(self.controllers)} controllers for {self.graph.n_edges} edges"
            )
        # coupling_matrix checks alpha and the summed edge gains, but beta + w
        # would broadcast a length-1 beta over every edge.
        if self.gain.beta.shape != (self.graph.n_edges,):
            raise DimensionMismatchError(f"beta has shape {self.gain.beta.shape}")
        E, sat, q = self.graph.incidence, self.controllers.saturated, self.agents.q[:, None]
        K = coupling_matrix(np.zeros(n), self.gain.alpha,
                            self.gain.beta + self.controllers.w, self.graph)
        operator = np.column_stack((np.diag(self.agents.p) - q * K, -q * E[:, sat]))
        operator.setflags(write=False)
        heads, tails = self.graph.heads, self.graph.tails
        cols = _tanh_columns(n, sat)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "_sat", (n, cols, heads[sat], tails[sat], self.agents.g))
        object.__setattr__(self, "_static", (n + np.flatnonzero(~sat), self.controllers.w[~sat],
                                             heads[~sat], tails[~sat]))

    def rate(self, z, z_dot, xmu):
        """Write the rate of ``z = [x, eta]`` into ``z_dot``, ``[x, tanh(eta_sat)]`` into ``xmu``.

        A static edge's entries of ``z_dot`` are never written; a zeroed buffer keeps them zero.
        """
        n, cols, heads, tails, g = self._sat
        xmu[:n] = z[:n]
        np.tanh(z[cols], xmu[n:])
        x_dot = np.dot(self.operator, xmu, z_dot[:n])
        np.add(x_dot, g, x_dot)
        if isinstance(cols, slice):
            np.subtract(z[heads], z[tails], z_dot[cols])
        else:
            z_dot[cols] = z[heads] - z[tails]

    def steady_rate(self, z_dots, xmus):
        """Worst agent state rate and controller output rate of each row of ``rate``'s results."""
        n, cols = self._sat[:2]
        rates = z_dots.copy()  # the saturated edges' entries are their zeta
        mu_sat = xmus[:, n:]
        rates[:, cols] *= 1.0 - mu_sat * mu_sat
        cols, w, heads, tails = self._static
        if w.size:
            rates[:, cols] = w * (z_dots[:, heads] - z_dots[:, tails])
        return np.abs(rates).max(axis=1)


@dataclass(frozen=True)
class Trajectory:
    """Sampled closed-loop run on a uniform time grid; its state arrays are read-only."""

    times: np.ndarray
    x_states: np.ndarray
    eta_states: np.ndarray
    converged: bool
    y_ss: np.ndarray  # None unless converged
    residual: float
    affine_samples: int = 0  # samples that came from the exact all-deep RK4 map


def _default_step(system):
    """Default step inside RK4's stability region at every saturation pattern.

    The Jacobian is J(D) = diag(A, 0) + [[0, B D], [E_sat^T, 0]] with
    D = diag(1 - tanh(eta_sat)^2) in [0, 1] (a static edge's eta never moves).
    The second term's 2-norm is max(||B D||, ||E_sat||), so
    r = ||A|| + max(||B||, ||E_sat||) >= ||J(D)|| >= rho(J(D)) for every D, and
    dt = 2.5 / r keeps every dt * lambda within 2.5 of 0.  Steady states are
    exact fixed points of the RK4 map, so a large step only costs transient
    accuracy.  The cap covers r = 0 (edgeless integrators).
    """
    n = system.graph.n_vertices
    E_sat = system.graph.incidence[:, system.controllers.saturated]
    r = np.linalg.norm(system.operator[:, :n], 2) + max(
        np.linalg.norm(system.operator[:, n:], 2), np.linalg.norm(E_sat, 2))
    return min(0.25, max(1e-4, 2.5 / max(r, 1e-12)))


class _DeepMap:
    """RK4's step, exactly, on the loop whose tanh edges all sit at |eta| >= ``_DEEP``.

    There tanh(eta_sat) is a fixed sign vector s, so the field is linear,
    x' = A x + b with b = B s + g and eta_sat' = E_sat^T x, and one RK4 step of
    size h is the [x, eta_sat] rows of P(hF) = I + Z + Z^2/2 + Z^3/6 + Z^4/24
    (Z = hF, F the field on [x, eta_sat, 1]):

        x   -> M x + N b,                     M = I + N A,
        eta -> eta + E_sat^T (N x + C b),     N = h (I + hA/2 + (hA)^2/6 + (hA)^3/24),
                                              C = h^2 (I/2 + hA/6 + (hA)^2/24).

    A block's rows are x_j = M^j x_0 + sum_{i<j} M^i N b from the held powers
    M, ..., M^_BLOCK, and its eta rows the running sum of the steps' increments.
    Only the offsets depend on s; they are formed once per sign pattern.  Held
    memory is _BLOCK n^2 + 8 m_sat n floats, plus _BLOCK n + 4 m_sat per pattern.
    """

    def __init__(self, system, dt):
        n = system.graph.n_vertices
        sat = system.controllers.saturated
        self.n, self.cols = n, _tanh_columns(n, sat)
        self.A_T, self.B, self.g = system.operator[:, :n].T, system.operator[:, n:], system.agents.g
        self.E_sat = system.graph.incidence[:, sat]
        eye, hA, h = np.eye(n), dt * system.operator[:, :n], dt
        tail = eye / 6 + hA / 24
        C = h * h * (eye / 2 + hA @ tail)
        self.N = h * (eye + hA @ (eye / 2 + hA @ tail))
        self.M = eye + self.N @ system.operator[:, :n]
        # Where RK4 on the deep loop is unstable, the map would amplify its own
        # rounding in modes RK4 holds at exactly zero: leave those runs to RK4.
        # The slack admits marginal modes (an eigenvalue 1 of M, as with
        # uncoupled integrators) that eigvals returns within rounding of 1.
        self.stable = np.abs(np.linalg.eigvals(self.M)).max() <= 1.0 + 1e-12
        powers = np.empty((_BLOCK, n, n))
        powers[0] = self.M
        for j in range(1, _BLOCK):
            np.dot(self.M, powers[j - 1], powers[j])
        self.powers = powers.reshape(_BLOCK * n, n)
        # RK4 reads tanh(eta) at four stage inputs per step: the row itself and
        # eta + (h/2) k1, eta + (h/2) k2, eta + h k3, whose eta parts are
        # E_sat^T (S x + O b) with S = (h/2) I, (h/2)(I + hA/2), h (I + hA/2 + (hA)^2/4).
        # Column block 0 maps x (and b) to a step's eta increment, 1..3 to those offsets.
        x_maps = (self.N, h / 2 * eye, h / 2 * (eye + hA / 2), h * (eye + hA / 2 + hA @ hA / 4))
        b_maps = (C, np.zeros((n, n)), h * h / 4 * eye, h * h / 2 * (eye + hA / 2))
        self.eta_x = np.hstack([L.T @ self.E_sat for L in x_maps])
        self.eta_b = np.hstack([L.T @ self.E_sat for L in b_maps])
        self.patterns = {}

    def offsets(self, s):
        """b, the row offsets sum_{i<j} M^i N b for j = 1.._BLOCK, and the eta offsets for s."""
        key = s.tobytes()
        if key not in self.patterns:
            b = self.B @ s + self.g
            D = np.empty((_BLOCK, self.n))
            D[0] = self.N @ b
            for j in range(1, _BLOCK):
                D[j] = self.M @ D[j - 1] + D[0]
            self.patterns[key] = b, D, (b @ self.eta_b).reshape(4, -1)
        return self.patterns[key]

    def step(self, table, rates, xmus, start, block):
        """Write rows start+1..start+block of ``table`` and rows 1..block of ``rates`` and ``xmus``.

        Row ``start`` must be deep.  Returns False, with ``rates`` and ``xmus``
        untouched, when RK4 on the deep loop is unstable, or a row or a stage
        input leaves the region where tanh is this row's s: RK4 must step them.
        """
        if not self.stable:
            return False
        n, cols = self.n, self.cols
        z = table[start]
        s = np.sign(z[cols])
        b, D, eta_offsets = self.offsets(s)
        rows = table[start + 1: start + 1 + block]
        X = rows[:, :n]
        np.add(np.dot(self.powers[: block * n], z[:n]).reshape(block, n), D[:block], X)
        rows[:, n:] = z[n:]  # a static edge's eta never moves
        steps = np.dot(table[start: start + block, :n], self.eta_x).reshape(block, 4, -1)
        steps += eta_offsets
        eta = z[cols] + np.cumsum(steps[:, 0], axis=0)
        rows[:, cols] = eta
        stages = steps[:, 1:] + table[start: start + block, cols][:, None, :]
        if not ((s * eta >= _DEEP).all() and (s * stages >= _DEEP).all()):
            return False
        np.add(np.dot(X, self.A_T), b, rates[1: block + 1, :n])
        rates[1: block + 1, cols] = np.dot(X, self.E_sat)
        xmus[1: block + 1, :n] = X
        xmus[1: block + 1, n:] = s
        return True


def simulate(system: ClosedLoopSystem, x0=None, eta0=None, dt=None, t_max=None,
             steady_tol=STEADY_TOL, window=_STEADY_WINDOW, seed=0):
    """Integrate the closed loop until steady, blown up, or out of time.

    RK4 steps on preallocated buffers; every ``_BLOCK`` samples one pass over
    the new rows finds the first blown-up one and their steady metrics, and
    the run stops at the first sample that ends it, dropping the rows after.
    A block that starts with every tanh edge deep is taken from RK4's exact
    affine map on the saturated loop and kept only if all its rows and stage
    inputs stay deep with the starting signs, and only where RK4 on that
    linear loop is stable; otherwise RK4 steps it.  ``Trajectory.affine_samples``
    counts the kept samples the map produced.

    Parameters
    ----------
    x0, eta0 : array or None
        Initial conditions, which must be finite.  Missing agent states are
        drawn uniformly from [min anchor - 10, max anchor + 10] with the given
        seed; missing controller states start at zero.
    dt, t_max : float or None
        Step size and horizon.  The default step keeps every stable mode in
        RK4's stability region (``_default_step``); the default horizon is
        5000 time units with early exit once steady.
    steady_tol : float
        Threshold on the worst state/output rate for steadiness.
    window : int
        Number of consecutive steady samples required before stopping.

    Raises
    ------
    NumericalBlowupError
        If any state after the initial one exceeds 1e12 in magnitude or is
        not finite.
    """
    n, m = system.graph.n_vertices, system.graph.n_edges
    dt = _default_step(system) if dt is None else dt
    t_max = 5000.0 if t_max is None else t_max
    if dt <= 0.0 or t_max <= 0.0 or window < 1:
        raise ValueError("dt, t_max and window must be positive")
    if x0 is None:
        rng = np.random.default_rng(seed)
        anchors = system.agents.anchors
        x = rng.uniform(anchors.min() - 10.0, anchors.max() + 10.0, n)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (n,):
            raise DimensionMismatchError(f"x0 has shape {x.shape}, expected ({n},)")
    eta = np.zeros(m) if eta0 is None else np.array(eta0, dtype=float)
    if eta.shape != (m,):
        raise DimensionMismatchError(f"eta0 has shape {eta.shape}, expected ({m},)")
    for name, value in (("x0", x), ("eta0", eta)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")

    rate, deep_map = system.rate, None
    tanh_cols = _tanh_columns(n, system.controllers.saturated)
    table = np.empty((4096, n + m))  # one row per sample, doubled when full
    table[0, :n], table[0, n:] = x, eta
    # Row 0: the last kept sample's rate; rows 1..: each new sample's rate.
    rates = np.zeros((_BLOCK + 1, n + m))
    xmus = np.empty((_BLOCK + 1, system.operator.shape[1]))
    s, total, k2, k3, k4 = np.zeros((5, n + m))
    xmu = np.empty(system.operator.shape[1])
    rate(table[0], rates[0], xmus[0])
    metrics = deque(system.steady_rate(rates[:1], xmus[:1]).tolist(), maxlen=window)
    steady_run = 1 if metrics[0] < steady_tol else 0
    converged = steady_run >= window
    count, affine_samples = 1, 0
    steps_left = int(np.floor(t_max / dt + 1e-9))
    # 0-d arrays: a ufunc takes them faster than Python floats, with the same product.
    half, step, sixth, two = np.array(dt / 2.0), np.array(dt), np.array(dt / 6.0), np.array(2.0)

    while steps_left and not converged:
        if count == table.shape[0]:
            grown = np.empty((2 * count, n + m))
            grown[:count] = table
            table = grown
        block = min(_BLOCK, steps_left, table.shape[0] - count)  # grow only when full
        # Rows stepped past a blowup are dropped unread, so their overflow is silent.
        with np.errstate(all="ignore"):
            z, k1 = table[count - 1], rates[0]
            affine = bool((np.abs(z[tanh_cols]) >= _DEEP).all())
            if affine:
                if deep_map is None:
                    deep_map = _DeepMap(system, dt)
                affine = deep_map.step(table, rates, xmus, count - 1, block)
            if not affine:
                for j in range(1, block + 1):
                    rate(np.add(z, np.multiply(half, k1, s), s), k2, xmu)
                    rate(np.add(z, np.multiply(half, k2, s), s), k3, xmu)
                    rate(np.add(z, np.multiply(step, k3, s), s), k4, xmu)
                    # (dt / 6) * (((k1 + 2 k2) + 2 k3) + k4), summed in that order
                    np.add(k1, np.multiply(two, k2, total), total)
                    np.add(total, np.multiply(two, k3, s), total)
                    np.multiply(sixth, np.add(total, k4, total), total)
                    z, k1 = np.add(z, total, table[count - 1 + j]), rates[j]
                    rate(z, k1, xmus[j])
            # Written so that a NaN, which fails every comparison, counts as blown up.
            blown = ~(np.abs(table[count: count + block]) <= _BLOWUP_LIMIT).all(axis=1)
            steady = system.steady_rate(rates[1: block + 1], xmus[1: block + 1])
        bad = int(blown.argmax()) if blown.any() else block
        start = count
        for metric in steady[:bad].tolist():
            metrics.append(metric)
            count += 1
            steady_run = steady_run + 1 if metric < steady_tol else 0
            if steady_run >= window:
                converged = True
                break
        if affine:
            affine_samples += count - start
        if bad < block and not converged:
            raise NumericalBlowupError(f"state magnitude exceeded {_BLOWUP_LIMIT:g} "
                                       f"at t = {count * dt:.6g}")
        rates[0] = rates[block]
        steps_left -= block

    table = table[:count]
    table.setflags(write=False)
    x_states, eta_states = table[:, :n].T, table[:, n:].T
    residual = float(np.max(metrics))
    y_ss = x_states[:, -1].copy() if converged else None
    return Trajectory(np.arange(count) * dt, x_states, eta_states, converged, y_ss, residual,
                      affine_samples)


def steady_state_residual(system: ClosedLoopSystem, y, zero_tol=1e-6):
    """First-order mismatch of y as a steady output of the regularized loop.

    Builds the matching regularized steady-state problem and returns the
    minimal norm of its gradient inclusion over admissible edge efforts.
    """
    problem = build_problem(system.graph, system.agents, system.controllers, system.gain)
    residual, _ = stationarity_residual(problem, y, zero_tol)
    return residual
