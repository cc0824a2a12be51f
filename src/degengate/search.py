"""Degeneracy-constrained gate search, landscape sweeps, sensitivity, calibration.

The optimizer minimizes

    d_opt^2 + purity_weight * (short-time purity loss)
    + 100 * (constrained pair gap)^2

over a bounded subset of the seven controls, using seeded Sobol restarts
of a Nelder-Mead simplex; everything is deterministic for a fixed seed.
The sweep engine evaluates the analytic initial purity-decay rate
|dP/dt| at t=0 on a 2-D parameter grid, which is the quantity whose
landscape exhibits minima at the double-degeneracy points; it works in
chunks of whole grid rows, each from one stacked eigendecomposition and
the closed-form slope. The degeneracy-break probe rates its random
perturbations of a point with the same kernel.
"""

from dataclasses import dataclass, field

import numpy as np

from .constructions import target_gate
from .errors import DegengateError, InvalidParameterError
from .hamiltonian import (
    PARAM_NAMES,
    HamiltonianParams,
    build_hamiltonian,
    build_hamiltonians,
    constraint_gap,
    degeneracy_classes,
    eigh_stack,
    pulse_unitary,
)
from .metrics import (GateReport, GateTarget, MakhlinInvariants, fidelity_score,
                      makhlin_invariants, report)
from .noise import WEAK_COUPLING_WARN, NoiseModel
from .redfield import gate_purity, initial_purity_slope, purity_slopes


def _check_coupling_norm(norm):
    if norm is not None and not 0.0 <= norm < np.inf:
        raise InvalidParameterError(f"coupling_norm must be finite and non-negative, got {norm}")


def _check_seed(seed):
    if seed < 0:
        raise InvalidParameterError(f"seed must be non-negative, got {seed}")


@dataclass
class SearchSpec:
    """Everything a deterministic optimization run needs.

    ``bounds`` maps free control names to (low, high); ``frozen`` pins the
    rest (unmentioned controls default to zero). ``degeneracy`` is the
    spectral constraint to enforce ('none', 'single' or 'double') through
    a quadratic gap penalty, and ``coupling_norm``, when set, fixes
    |J| = sqrt(jx^2+jy^2+jz^2) by rescaling the couplings; it must be
    finite and non-negative. ``gate_time`` and ``distance_threshold`` must
    be positive and finite, ``purity_weight`` finite and non-negative, and
    ``seed`` non-negative.
    """

    target: str
    bounds: dict
    frozen: dict = field(default_factory=dict)
    degeneracy: str = "none"
    coupling_norm: float = None
    purity_weight: float = 0.0
    gate_time: float = 1.0
    seed: int = 0
    restarts: int = 8
    max_iter: int = 600
    distance_threshold: float = 1e-6

    def __post_init__(self):
        if not self.bounds:
            raise InvalidParameterError("bounds must name at least one free control")
        for name in list(self.bounds) + list(self.frozen):
            if name not in PARAM_NAMES:
                raise InvalidParameterError(f"unknown control {name!r}")
        if set(self.bounds) & set(self.frozen):
            raise InvalidParameterError("a control cannot be both free and frozen")
        for name, (lo, hi) in self.bounds.items():
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise InvalidParameterError(f"bad bounds for {name}: ({lo}, {hi})")
        if self.degeneracy not in ("none", "single", "double"):
            raise InvalidParameterError("degeneracy must be none, single or double")
        if self.restarts < 1 or self.max_iter < 1:
            raise InvalidParameterError("restarts and max_iter must be at least 1")
        if not 0.0 < self.gate_time < np.inf:
            raise InvalidParameterError(
                f"gate_time must be positive and finite, got {self.gate_time}")
        if not 0.0 <= self.purity_weight < np.inf:
            raise InvalidParameterError(
                f"purity_weight must be finite and non-negative, got {self.purity_weight}")
        if not 0.0 < self.distance_threshold < np.inf:
            raise InvalidParameterError(
                f"distance_threshold must be positive and finite, got {self.distance_threshold}")
        _check_coupling_norm(self.coupling_norm)
        _check_seed(self.seed)


@dataclass(frozen=True)
class OptimizeResult:
    """Best point found, its report, and the bookkeeping around it."""

    params: HamiltonianParams
    report: GateReport
    objective: float
    converged: bool
    invariant_gap: float
    objective_history: tuple
    evaluations: int


def _spec_params(spec: SearchSpec, x):
    values = dict(spec.frozen)
    for name, xi in zip(sorted(spec.bounds), x):
        values[name] = float(xi)
    p = HamiltonianParams(**{n: values.get(n, 0.0) for n in PARAM_NAMES})
    if spec.coupling_norm is not None:
        norm = p.coupling_norm
        if norm > 0:
            factor = spec.coupling_norm / norm
            p = p.replace(jx=p.jx * factor, jy=p.jy * factor, jz=p.jz * factor)
    return p


def optimize(spec: SearchSpec, nm: NoiseModel = None):
    """Derivative-free search for the target gate under the spec's constraints.

    Nelder-Mead restarted from a Sobol low-discrepancy set of initial
    points (seeded, hence reproducible); the best point is polished by a
    final tight simplex. The purity term uses the analytic short-time
    loss estimate |dP/dt|_0 * gate_time, so the objective stays cheap;
    the returned report contains the fully propagated purity.
    """
    if nm is None:
        nm = NoiseModel.from_reduced()
    target = spec.target if isinstance(spec.target, GateTarget) else target_gate(spec.target)
    names = sorted(spec.bounds)
    lows = np.array([spec.bounds[n][0] for n in names])
    highs = np.array([spec.bounds[n][1] for n in names])
    counter = {"n": 0}

    def objective(x, purity_weight=None):
        counter["n"] += 1
        if purity_weight is None:
            purity_weight = spec.purity_weight
        p = _spec_params(spec, np.clip(x, lows, highs))
        h = build_hamiltonian(p)
        value = max(8.0 - 8.0 * fidelity_score(pulse_unitary(h, spec.gate_time), target), 0.0)
        if spec.degeneracy != "none":
            gap = constraint_gap(np.diff(np.linalg.eigvalsh(h) / np.pi), spec.degeneracy)
            value += 100.0 * gap**2
        if purity_weight > 0.0 and nm.alpha > 0.0:
            value += purity_weight * abs(initial_purity_slope(p, nm)) * spec.gate_time
        return value

    # Imported here: scipy.stats and scipy.optimize take about 1 s to import.
    from scipy.optimize import minimize
    from scipy.stats import qmc

    sampler = qmc.Sobol(d=len(names), scramble=True, seed=spec.seed)
    n_draw = 1 << max(int(np.ceil(np.log2(max(spec.restarts, 1)))), 0)
    starts = qmc.scale(sampler.random(n_draw)[: spec.restarts], lows, highs)

    history = []
    best_x, best_val = None, np.inf
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            bounds=list(zip(lows, highs)),
            options={"maxiter": spec.max_iter, "xatol": 1e-10, "fatol": 1e-14,
                     "adaptive": True},
        )
        if res.fun < best_val:
            best_x, best_val = res.x, float(res.fun)
        history.append(best_val)

    # The purity term steers restart selection; the polish then solves the
    # exact-gate condition within the basin it picked (the purity pull is
    # linear around the gate manifold, so keeping it would park the final
    # point a finite distance off the exact solution).
    polish = minimize(
        lambda x: objective(x, purity_weight=0.0),
        best_x,
        method="Nelder-Mead",
        bounds=list(zip(lows, highs)),
        options={"maxiter": 4 * spec.max_iter, "xatol": 1e-13, "fatol": 1e-16,
                 "adaptive": True},
    )
    polished_val = objective(polish.x)
    if polish.fun < best_val:
        best_x, best_val = polish.x, float(polished_val)
    history.append(best_val)

    params = _spec_params(spec, np.clip(best_x, lows, highs))
    gate_report = report(params, target, nm, t0=spec.gate_time)
    inv_gap = MakhlinInvariants(gate_report.g1, gate_report.g2).gap(makhlin_invariants(target))
    converged = gate_report.distance_phase_opt < spec.distance_threshold
    return OptimizeResult(
        params=params,
        report=gate_report,
        objective=best_val,
        converged=bool(converged),
        invariant_gap=inv_gap,
        objective_history=tuple(history),
        evaluations=counter["n"],
    )


# ---------------------------------------------------------------------------
# Landscape sweep (the purity-decay-rate heatmap)


@dataclass
class SweepGrid:
    """A 2-D grid over two controls with the rest fixed or closed.

    ``closure='jx_from_norm'`` solves jx >= 0 from the fixed coupling
    norm |J| (finite and non-negative) at every cell; cells with
    jy^2 + jz^2 > |J|^2 are marked infeasible. ``degeneracy_tol``
    (reduced units, positive and finite) is the classification tolerance
    used for labelling grid cells, necessarily coarser than the
    exact-degeneracy default because grid points only approach the
    degeneracy manifolds.
    """

    param1: str
    param2: str
    values1: np.ndarray
    values2: np.ndarray
    fixed: dict = field(default_factory=dict)
    closure: str = None
    coupling_norm: float = None
    degeneracy_tol: float = 0.05

    def __post_init__(self):
        for name in (self.param1, self.param2, *self.fixed):
            if name not in PARAM_NAMES:
                raise InvalidParameterError(f"unknown control {name!r}")
        if self.param1 == self.param2:
            raise InvalidParameterError(f"param1 and param2 are both {self.param1!r}")
        for name in self.fixed:
            if name in (self.param1, self.param2):
                raise InvalidParameterError(f"control {name!r} is both swept and fixed")
        if self.closure not in (None, "jx_from_norm"):
            raise InvalidParameterError("closure must be None or 'jx_from_norm'")
        if self.closure == "jx_from_norm" and "jx" in (self.param1, self.param2, *self.fixed):
            raise InvalidParameterError("closure 'jx_from_norm' sets jx; do not sweep or fix it")
        if self.closure == "jx_from_norm" and self.coupling_norm is None:
            raise InvalidParameterError("closure requires coupling_norm")
        _check_coupling_norm(self.coupling_norm)
        if not 0.0 < self.degeneracy_tol < np.inf:
            raise InvalidParameterError(
                f"degeneracy_tol must be positive and finite, got {self.degeneracy_tol}"
            )
        self.values1 = np.asarray(self.values1, dtype=float)
        self.values2 = np.asarray(self.values2, dtype=float)
        if self.values1.size == 0 or self.values2.size == 0:
            raise InvalidParameterError("each grid axis needs at least one value")
        if not np.all(np.isfinite([*self.values1, *self.values2, *self.fixed.values()])):
            raise InvalidParameterError("grid values and fixed controls must be finite")

    def controls(self):
        """Controls of every cell, shape (len(values1), len(values2), 7).

        Returns the controls (ordered like PARAM_NAMES, jx closed where
        the closure is on) and the (len(values1), len(values2)) boolean
        mask of the cells the closure allows.
        """
        controls = np.zeros((len(self.values1), len(self.values2), len(PARAM_NAMES)))
        for name, value in self.fixed.items():
            controls[..., PARAM_NAMES.index(name)] = value
        controls[..., PARAM_NAMES.index(self.param1)] = self.values1[:, None]
        controls[..., PARAM_NAMES.index(self.param2)] = self.values2
        allowed = np.ones(controls.shape[:2], dtype=bool)
        if self.closure == "jx_from_norm":
            jy, jz = controls[..., PARAM_NAMES.index("jy")], controls[..., PARAM_NAMES.index("jz")]
            residual = self.coupling_norm**2 - jy**2 - jz**2
            allowed = residual >= 0
            controls[allowed, PARAM_NAMES.index("jx")] = np.sqrt(residual[allowed])
        return controls, allowed


@dataclass(frozen=True)
class SweepResult:
    """Per-cell decay rates and degeneracy diagnostics, index-ordered.

    ``pair_gap`` is the double-degeneracy violation measure (largest
    internal gap of the two pairs), ``ground_gap`` the gap of the lowest
    pair alone; both in reduced units. Grid cells whose lowest pair is
    closed but whose upper pair is not are the single-degeneracy cells
    the relaxation-suppression mechanism protects.
    """

    grid: SweepGrid
    decay_rate: np.ndarray
    classification: np.ndarray
    min_gap: np.ndarray
    pair_gap: np.ndarray
    ground_gap: np.ndarray
    feasible: np.ndarray
    reason: np.ndarray

    def _near_min_cells(self, values):
        """Feasible cells within 1e-12 of the feasible minimum, if any."""
        if not self.feasible.any():
            return set()
        values = np.where(self.feasible, values, np.inf)
        return set(zip(*np.where(values <= np.min(values) + 1e-12)))

    def argmin_cells(self):
        """Feasible cells whose rate is within 1e-12 of the minimum."""
        return self._near_min_cells(self.decay_rate)

    def min_pair_gap_cells(self):
        """Feasible cells whose pair gap is within 1e-12 of the minimum."""
        return self._near_min_cells(self.pair_gap)

    def record_keys(self):
        """Names of the columns of ``rows``, the keys of ``to_records``."""
        return (self.grid.param1, self.grid.param2, "feasible", "dpdt0", "degeneracy_class",
                "min_gap", "pair_gap", "ground_gap", "reason")

    def rows(self):
        """One tuple of Python scalars per cell, in index order, columns as ``record_keys``."""
        n1, n2 = self.feasible.shape
        columns = (
            np.repeat(self.grid.values1, n2),
            np.tile(self.grid.values2, n1),
            self.feasible,
            self.decay_rate,
            self.classification,
            self.min_gap,
            self.pair_gap,
            self.ground_gap,
            self.reason,
        )
        return list(zip(*(np.ravel(column).tolist() for column in columns)))

    def to_records(self):
        keys = self.record_keys()
        return [dict(zip(keys, row)) for row in self.rows()]


#: Most grid cells ``sweep`` passes to one ``_sweep_cells`` call; it bounds
#: the kernel's working memory. A fig1 sweep (41 x 41) raised peak memory by
#: about 1.9 MB at 512 cells per call and 3.4 MB at 4096, with no gain in speed.
SWEEP_CHUNK_CELLS = 512


def _sweep_cells(controls, nm, tol):
    """|dP/dt| at t=0, degeneracy class and adjacent gaps of (n, 7) controls.

    One stacked ``eigh`` and one closed-form slope kernel for all n cells,
    at t0 = 1; ``sweep`` calls it per chunk of grid rows,
    ``degeneracy_break_probe`` per batch of draws.
    """
    energies, vectors = eigh_stack(build_hamiltonians(controls))
    adjacent = np.diff(energies, axis=-1)
    return np.abs(purity_slopes(energies, vectors, nm)), degeneracy_classes(adjacent, tol), adjacent


def sweep(grid: SweepGrid, nm: NoiseModel):
    """Evaluate |dP/dt| at t=0 and degeneracy diagnostics on every cell.

    The grid is evaluated in chunks of whole rows, as many rows as fit in
    SWEEP_CHUNK_CELLS cells (a grid whose rows are longer than that is cut
    into chunks of SWEEP_CHUNK_CELLS consecutive cells). A chunk's
    feasible cells are diagonalized together by one ``np.linalg.eigh``
    call on their stacked Hamiltonians, and their rates come from the
    closed-form slope kernel ``purity_slopes``, so no Liouvillian or
    product state is built, and the kernel's memory does not grow with
    the grid.
    A chunk that raises a numerical failure (DegengateError or
    LinAlgError) is redone cell by cell, and only the failing cells are
    marked infeasible with ``error: ...`` as their reason; any other
    exception propagates.
    """
    n1, n2 = len(grid.values1), len(grid.values2)
    controls, allowed = grid.controls()
    controls, allowed = controls.reshape(n1 * n2, -1), allowed.ravel()
    decay = np.full(n1 * n2, np.nan)
    classification = np.full(n1 * n2, "none", dtype=object)
    min_gap = np.full(n1 * n2, np.nan)
    pair_gap = np.full(n1 * n2, np.nan)
    ground_gap = np.full(n1 * n2, np.nan)
    feasible = np.zeros(n1 * n2, dtype=bool)
    reason = np.full(n1 * n2, "", dtype=object)
    reason[~allowed] = "infeasible: |J| closure"
    tol = grid.degeneracy_tol * np.pi

    step = n2 * (SWEEP_CHUNK_CELLS // n2) or SWEEP_CHUNK_CELLS
    for start in range(0, n1 * n2, step):
        cells = start + np.flatnonzero(allowed[start:start + step])
        try:
            done = [(cells, _sweep_cells(controls[cells], nm, tol))]
        except (DegengateError, np.linalg.LinAlgError):  # numerical failures stay per cell
            done = []
            for k in cells:
                try:
                    done.append(([k], _sweep_cells(controls[[k]], nm, tol)))
                except (DegengateError, np.linalg.LinAlgError) as exc:
                    reason[k] = f"error: {exc}"
        for ks, (rate, classes, adjacent) in done:
            decay[ks] = rate
            classification[ks] = classes
            min_gap[ks] = constraint_gap(adjacent, "single") / np.pi
            pair_gap[ks] = constraint_gap(adjacent, "double") / np.pi
            ground_gap[ks] = adjacent[:, 0] / np.pi
            feasible[ks] = True
    return SweepResult(
        grid=grid,
        decay_rate=decay.reshape(n1, n2),
        classification=classification.reshape(n1, n2),
        min_gap=min_gap.reshape(n1, n2),
        pair_gap=pair_gap.reshape(n1, n2),
        ground_gap=ground_gap.reshape(n1, n2),
        feasible=feasible.reshape(n1, n2),
        reason=reason.reshape(n1, n2),
    )


def fig1_grid(n=41):
    """The n x n (Jy, Jz) landscape grid with |J| fixed and locals constant.

    Identical qubits sit at their optimal points (eps = 0,
    Delta1 = Delta2 = 1), |J| = sqrt(4.25), and the couplings sweep
    Jy over [0.10, 1.70] and Jz over [0.48, 2.08], a window whose Jx
    closure disk boundary crosses the double-degeneracy hyperbola
    Jy Jz = Delta^2 exactly at the grid point (0.5, 2.0); that crossing
    is where the landscape attains its minimum decay rate. (Only one of
    the two symmetric crossings lies in the window; the sigma_z-coupled
    baths make the rate lower on the Jz-dominant branch.) Cells are
    labelled with ``degeneracy_tol`` 0.1, like the ``paper:fig1``
    experiment.
    """
    return SweepGrid(
        param1="jy",
        param2="jz",
        values1=np.linspace(0.10, 1.70, n),
        values2=np.linspace(0.48, 2.08, n),
        fixed={"delta1": 1.0, "delta2": 1.0},
        closure="jx_from_norm",
        coupling_norm=np.sqrt(4.25),
        degeneracy_tol=0.1,
    )


def degeneracy_break_probe(params: HamiltonianParams, expected, nm: NoiseModel,
                           draws=100, seed=11, gap_floor=1e-4):
    """Check a degeneracy point is a strict rate minimum in its landscape family.

    Perturbs (jy, jz) by up to 0.1 |J| inside the fixed-|J| disk, closes
    jx = +sqrt(|J|^2 - jy^2 - jz^2) and keeps the local fields fixed, i.e.
    moves within exactly the published landscape family. Draws that do not
    actually break the ``expected`` degeneracy ('single' or 'double'), that
    is whose classification at tolerance 1e-8 is unchanged or whose broken
    gap (reduced units) is below ``gap_floor``, are redrawn, within
    100 * ``draws`` attempts in all.
    Returns (number of draws with strictly larger |dP/dt|, draws, worst
    rate ratio).

    Candidates are drawn one attempt at a time, and an attempt uses the
    same random numbers whether or not it is kept, so the probe draws as
    many attempts as it still needs draws and rates them together. Each
    batch, and the point itself, goes through the sweep's kernel: one
    stacked ``eigh``, the classification and the closed-form slope, with no
    Liouvillian or product state.

    Raises InvalidParameterError, before drawing anything, unless
    ``draws`` is a positive integer, ``seed`` is non-negative,
    ``gap_floor`` is non-negative and finite, and the point has a coupling
    and a nonzero rate (there is none to compare against at alpha = 0).
    """
    if isinstance(draws, bool) or not isinstance(draws, (int, np.integer)) or draws < 1:
        raise InvalidParameterError(f"draws must be a positive integer, got {draws!r}")
    if expected not in ("single", "double"):
        raise InvalidParameterError(f"expected must be 'single' or 'double', got {expected!r}")
    _check_seed(seed)
    if not 0.0 <= gap_floor < np.inf:
        raise InvalidParameterError(f"gap_floor must be non-negative and finite, got {gap_floor}")
    norm = params.coupling_norm
    if norm <= 0:
        raise InvalidParameterError("the construction has no coupling to perturb")
    # The kernel builds at t0 = 1; controls over t0 give the same Hamiltonians.
    point = params.as_array() / params.t0
    base = _sweep_cells(point[None], nm, 1e-8)[0][0]
    if base == 0.0:
        raise InvalidParameterError("the point's rate is 0, so no ratio can be formed")
    couplings = slice(PARAM_NAMES.index("jx"), PARAM_NAMES.index("jz") + 1)
    rng = np.random.default_rng(seed)
    worse, total, worst = 0, 0, np.inf
    attempts = 0
    while total < draws:
        batch = min(draws - total, 100 * draws - attempts)
        if batch == 0:
            raise InvalidParameterError("could not draw degeneracy-breaking perturbations")
        attempts += batch
        candidates = []
        for _ in range(batch):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            step = 0.1 * norm * (0.2 + 0.8 * rng.random())
            jy = params.jy + step * d[0]
            jz = params.jz + step * d[1]
            if jy**2 + jz**2 <= norm**2:
                candidates.append((np.sqrt(norm**2 - jy**2 - jz**2), jy, jz))
        if not candidates:
            continue
        controls = np.tile(point, (len(candidates), 1))
        controls[:, couplings] = np.array(candidates) / params.t0
        rates, classes, adjacent = _sweep_cells(controls, nm, 1e-8)
        broken_gap = constraint_gap(adjacent, expected) / np.pi
        kept = rates[(classes != expected) & (broken_gap >= gap_floor)]
        total += kept.size
        worse += int(np.count_nonzero(kept > base))
        worst = float(np.min(kept / base, initial=worst))
    return worse, total, worst


# ---------------------------------------------------------------------------
# Detuning sensitivity


@dataclass(frozen=True)
class SensitivityReport:
    """Quadratic response of the total gate error to relative detuning.

    The error of a detuned pulse combines the coherent deviation from the
    gate the optimum itself realizes, 1 - |Tr(U0^dag U(delta))| / 4, and
    the change in propagated purity loss. ``radius`` is the relative
    detuning keeping that error within the budget according to the
    quadratic model, minimized over the nonzero controls.
    """

    budget: float
    quadratic: dict
    linear: dict
    coherent_linear: dict
    radii: dict
    radius: float
    non_optimal: bool


#: A coherent linear term above LINEAR_TOL * max(q, 1) marks a point non-optimal.
LINEAR_TOL = 1e-6

#: Relative detuning of each control in ``sensitivity``'s central differences.
SENSITIVITY_STEP = 2e-3


def sensitivity(params: HamiltonianParams, nm: NoiseModel, budget=1e-4,
                gate_time=None, target=None):
    """Central-difference quadratic sensitivity around an optimum.

    Detunes every nonzero control by +-SENSITIVITY_STEP (relative), fits the
    quadratic response of the combined error (coherent gate deviation
    plus the change in propagated purity loss, which is exactly 0 without
    a bath), and inverts it for the tolerance radius at the given budget.

    When ``target`` is given (a GateTarget or unitary), the coherent error
    is measured against it and a linear term above ``LINEAR_TOL`` flags
    the point as non-optimal. Without a target the error is measured
    against the gate the point itself realizes, which is the right notion
    for equivalence-class constructions; that reference is stationary by
    construction, so no optimality check is possible in this mode. A
    ``budget`` that is negative or not finite raises InvalidParameterError.
    """
    if not 0.0 <= budget < np.inf:
        raise InvalidParameterError(f"need a finite budget >= 0, got {budget}")
    if gate_time is None:
        gate_time = params.t0
    check_linear = target is not None
    if not check_linear:
        target = pulse_unitary(build_hamiltonian(params), gate_time)
    base_loss = gate_purity(params, nm, t_final=gate_time, dt=gate_time).loss()

    def errors(p):
        coh = 1.0 - fidelity_score(pulse_unitary(build_hamiltonian(p), gate_time), target)
        loss = gate_purity(p, nm, t_final=gate_time, dt=gate_time).loss()
        return coh, coh + (loss - base_loss)

    quadratic, linear, coh_linear, radii = {}, {}, {}, {}
    non_optimal = False
    for name in PARAM_NAMES:
        v = getattr(params, name)
        if v == 0.0:
            continue
        dp = abs(v) * SENSITIVITY_STEP
        p_plus = params.replace(**{name: v + dp})
        p_minus = params.replace(**{name: v - dp})
        (c_plus, e_plus), (c_minus, e_minus) = errors(p_plus), errors(p_minus)
        q = (e_plus + e_minus) / (2.0 * SENSITIVITY_STEP**2)
        quadratic[name] = float(q)
        linear[name] = float((e_plus - e_minus) / (2.0 * SENSITIVITY_STEP))
        coh_lin = (c_plus - c_minus) / (2.0 * SENSITIVITY_STEP)
        coh_linear[name] = float(coh_lin)
        if check_linear and abs(coh_lin) > LINEAR_TOL * max(q, 1.0):
            non_optimal = True
        radii[name] = float(np.sqrt(budget / q)) if q > 0 else np.inf
    return SensitivityReport(
        budget=budget,
        quadratic=quadratic,
        linear=linear,
        coherent_linear=coh_linear,
        radii=radii,
        radius=float(min(radii.values())) if radii else np.inf,
        non_optimal=non_optimal,
    )


# ---------------------------------------------------------------------------
# Physical-units calibration


#: Boltzmann constant over Planck constant in GHz per kelvin; converts a
#: reservoir temperature in kelvin to the quoted-frequency unit system.
KB_OVER_H_GHZ_PER_K = 20.836619

#: Reduced cutoff and default reduced temperature of a calibrated noise model.
CALIBRATION_CUTOFF, CALIBRATION_TEMPERATURE = 20.0, 0.2


@dataclass(frozen=True)
class CalibrationResult:
    """Dimensionless noise model extracted from device numbers.

    ``alpha`` solves the pinned relaxation identity
    1/T1 = kappa (pi/2) S(Delta) (kappa = RELAXATION_NORMALIZATION, i.e.
    the generator's exact rate S(2 Delta)/pi) with the device numbers
    entered in their quoted units: GHz as printed, rates as plain inverse
    time. ``energy_unit_ghz`` says how many quoted GHz one reduced unit
    (pi/t0) corresponds to, fixed by mapping the device tunneling
    amplitude to one reduced unit.
    """

    alpha: float
    noise: NoiseModel
    energy_unit_ghz: float
    temperature_machine: float
    flagged: bool


def calibrate(delta_ghz, t1_inverse_ghz, temperature_kelvin=None):
    """Extract the Ohmic coupling from a measured single-qubit 1/T1.

    Solves t1_inverse = S(2 Delta) / pi, the exact relaxation rate of the
    implemented generator (equal to the quoted (pi/2) S(Delta) identity
    times the pinned normalization 4/pi^2 at T -> 0), for alpha, with the
    device numbers in their quoted units. The returned reduced NoiseModel
    is ready for gate runs where the device tunneling amplitude maps to
    one reduced unit; when ``temperature_kelvin`` is omitted the reduced
    temperature is CALIBRATION_TEMPERATURE. An alpha above
    WEAK_COUPLING_WARN sets ``flagged`` (the NoiseModel itself warns).
    """
    if delta_ghz <= 0:
        raise InvalidParameterError("delta_ghz must be positive")
    if t1_inverse_ghz < 0:
        raise InvalidParameterError("t1_inverse_ghz must be non-negative")
    if temperature_kelvin is not None:
        t_machine = KB_OVER_H_GHZ_PER_K * temperature_kelvin
        t_reduced = t_machine / delta_ghz
    else:
        t_reduced = CALIBRATION_TEMPERATURE
        t_machine = t_reduced * delta_ghz

    if t1_inverse_ghz == 0.0:
        alpha = 0.0
    else:
        x = delta_ghz / t_machine if t_machine > 0 else np.inf
        coth = 1.0 / np.tanh(x) if np.isfinite(x) else 1.0
        alpha = np.pi * t1_inverse_ghz / (2.0 * delta_ghz * coth)

    flagged = alpha > WEAK_COUPLING_WARN
    noise = NoiseModel.from_reduced(
        alpha=alpha, temperature=t_reduced, cutoff=CALIBRATION_CUTOFF
    )
    return CalibrationResult(
        alpha=float(alpha),
        noise=noise,
        energy_unit_ghz=float(delta_ghz),
        temperature_machine=float(t_machine),
        flagged=bool(flagged),
    )
