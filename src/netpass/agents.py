"""Single-input single-output agent models placed on network vertices.

Every agent here is equilibrium-independent passive up to a scalar shortage
or surplus: along any trajectory there is a storage function S with

    dS/dt <= (u - u_ss) * (y - y_ss) - rho * (y - y_ss)**2

for every constant steady-state pair (u_ss, y_ss).  A negative ``rho`` means
the agent is passivity-short and needs network help.

All supported models have affine dynamics and affine steady-state maps, so a
model is a parameter record whose class writes its parameter ``rules`` and
coefficients once (``coeffs``: the passivity index ``rho``, drift
``p*x + q*u + g``, steady-state input map ``slope*y + intercept`` whose
integral, the agent's potential, is anchored by a constant, and the output
where that potential is stationary), over scalars or one kind's columns.
``AgentBank`` evaluates them kind by kind, then the steady-state map and the
potentials vectorized over all agents; its base serves the controllers too.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .errors import DimensionMismatchError, ParameterError, as_vector

__all__ = ["TrafficAgent", "IntegratorAgent", "StaticAffineAgent", "AgentBank"]


@np.errstate(all="ignore")  # an overflowing rule or coefficient fails, not warns
def _check_rules(columns):
    """(roster positions, coefficients) per class in ``columns``, unless a rule is broken.

    Then raise the ParameterError of the first broken at the lowest roster position.  Last come
    one rule per parameter i, broken by non-finite coefficients that setting 0..i to 1 makes finite.
    """
    failures, coefficients = [], []  # failures: (roster position, rule number, rule, column entry)
    for cls, (positions, params) in columns.items():
        coefficients.append((positions, cls.coeffs(*params)))
        bad = ~np.isfinite(sum(map(abs, coefficients[-1][1])))
        overflow = [(name, bad & np.isfinite(sum(map(abs, cls.coeffs(*[1.0] * i, *params[i:])))),
                     name + " = {} gives a non-finite coefficient", v)
                    for i, (name, v) in enumerate(zip(cls.__match_args__, params), 1) if bad.any()]
        for r, rule in enumerate((*cls.rules(*params), *overflow)):
            failures += [(int(positions[j]), r, rule, j) for j in np.flatnonzero(rule[1])[:1]]
    if failures:
        position, _, (field, _, template, *values), j = min(failures, key=lambda f: f[:2])
        message = template.format(*(np.ravel(v)[j].item() for v in values))
        raise ParameterError(field, message, position)
    return coefficients


class ModelRecord:
    """A frozen dataclass of parameters; ``rules`` and ``coeffs`` take them in field order."""

    rules = staticmethod(lambda *params: ())  # (field, failing, template, *values) per rule

    def __post_init__(self):
        _check_rules({type(self): ((0,), np.array(astuple(self), float)[:, None])})


class ModelBank:
    """Per model, the read-only arrays ``COEFFICIENTS`` names, filled class by class."""

    COEFFICIENTS = ()  # (attribute, dtype) per value of a class's ``coeffs``

    def __init__(self, models):
        models, columns = tuple(models), {}
        for k, model in enumerate(models):
            positions, rows = columns.setdefault(type(model), ([], []))
            positions.append(k)
            rows.append(astuple(model))
        self._fill(len(models), {cls: (p, list(zip(*rows))) for cls, (p, rows) in columns.items()})

    @classmethod
    def from_columns(cls, count, columns):
        """The bank of ``count`` models: record class -> (roster positions, parameter columns)."""
        bank = cls.__new__(cls)
        cls._fill(bank, count, columns)
        return bank

    def _fill(self, count, columns):
        columns = {cls: (np.asarray(p, dtype=np.intp), [np.asarray(c, dtype=float) for c in params])
                   for cls, (p, params) in columns.items()}
        arrays = [np.zeros(count, dtype) for _, dtype in self.COEFFICIENTS]
        for positions, coefficients in _check_rules(columns):
            for array, values in zip(arrays, coefficients, strict=True):
                array[positions] = values
        for (name, _), array in zip(self.COEFFICIENTS, arrays):
            array.setflags(write=False)
            setattr(self, name, array)

    def __len__(self):
        return len(getattr(self, self.COEFFICIENTS[0][0]))


@dataclass(frozen=True)
class TrafficAgent(ModelRecord):
    """First-order velocity-tracking vehicle model.

    dx/dt = kappa * (-x + v0 + v1 * u),   y = x

    ``v0`` is the free-flow velocity and ``v1`` scales the neighbor feedback.
    The model is equilibrium-independent passive (short for kappa < 0) with
    index ``rho = kappa``; construction requires ``v1 * kappa > 0`` so that a
    positive-definite quadratic storage exists.
    """

    kappa: float
    v0: float
    v1: float

    @staticmethod
    def rules(kappa, v0, v1):
        return (("v1", v1 == 0.0, "traffic agent needs v1 != 0"),
                ("v1", v1 * kappa <= 0.0, "traffic agent needs v1 * kappa > 0, got {}",
                 v1 * kappa))

    @staticmethod
    def coeffs(kappa, v0, v1):
        # The potential is (y - v0)**2 / (2 v1), squared by libm's pow as Python's ** does.
        return (kappa, -kappa, kappa * v1, kappa * v0,
                1.0 / v1, -v0 / v1, np.float_power(v0, 2) / (2.0 * v1), v0)


@dataclass(frozen=True)
class IntegratorAgent(ModelRecord):
    """Pure integrator: dx/dt = u, y = x.  Lossless, index rho = 0."""

    @staticmethod
    def coeffs():
        # Any output is an equilibrium under zero input.
        return 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0


@dataclass(frozen=True)
class StaticAffineAgent(ModelRecord):
    """First-order lag realizing the affine steady-state map y = a*u + c.

    dx/dt = tau * (-x + a * u + c),   y = x

    The passivity index is supplied explicitly by the caller rather than
    derived from (a, tau); tests pick values consistent with the dynamics.
    """

    a: float
    c: float
    tau: float = 1.0
    rho: float = 0.0

    @staticmethod
    def rules(a, c, tau, rho):
        return (("a", a == 0.0, "static affine agent needs a != 0"),
                ("tau", tau <= 0.0, "static affine agent needs tau > 0, got {}", tau))

    @staticmethod
    def coeffs(a, c, tau, rho):
        # The potential is (y**2 / 2 - c y) / a, zero at y = 0.
        return rho, -tau, tau * a, tau * c, 1.0 / a, -c / a, 0.0, c


class AgentBank(ModelBank):
    """Ordered collection of agents with their coefficients as arrays."""

    # rho, drift p*x + q*u + g, steady map slope*y + intercept, potential constant, anchor
    COEFFICIENTS = [(name, float) for name in (
        "rho_vector", "p", "q", "g", "slope", "intercept", "const", "anchors")]

    def __init__(self, agents):
        agents = tuple(agents)
        if not agents:
            raise DimensionMismatchError("agent bank cannot be empty")
        super().__init__(agents)

    def steady_input(self, y):
        """Per-agent steady-state input map, vectorized over outputs."""
        y = as_vector(y, len(self), "y")
        return self.slope * y + self.intercept

    def potential_total(self, y):
        """Sum of agent potentials at the output vector y."""
        y = as_vector(y, len(self), "y")
        return float(np.sum(0.5 * self.slope * y**2 + self.intercept * y + self.const))
