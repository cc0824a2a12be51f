"""Degeneracy-constrained gate search, landscape sweeps, sensitivity, calibration.

The optimizer minimizes

    distance_weight * d_opt^2 + purity_weight * (short-time purity loss)
    + degeneracy_weight * (constrained pair gap)^2

over a bounded subset of the seven controls, using seeded Sobol restarts
of a Nelder-Mead simplex; everything is deterministic for a fixed seed.
The sweep engine evaluates the analytic initial purity-decay rate
|dP/dt| at t=0 on a 2-D parameter grid, which is the quantity whose
landscape exhibits minima at the double-degeneracy points.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import expm

from .errors import DegengateError, InvalidParameterError
from .hamiltonian import (
    PARAM_NAMES,
    HamiltonianParams,
    build_hamiltonian,
    classify_degeneracy,
    eigensystem,
)
from .metrics import GateReport, GateTarget, makhlin_invariants, report
from .noise import NoiseModel
from .redfield import gate_purity, initial_purity_slope


def _degeneracy_violation(energies, constraint):
    """Gap (in reduced units) of the pair(s) the constraint wants closed."""
    e = np.sort(energies) / np.pi
    adjacent = np.diff(e)
    if constraint == "single":
        return float(np.min(adjacent))
    if constraint == "double":
        return float(max(adjacent[0], adjacent[2]))
    return 0.0


@dataclass
class SearchSpec:
    """Everything a deterministic optimization run needs.

    ``bounds`` maps free control names to (low, high); ``frozen`` pins the
    rest (unmentioned controls default to zero). ``degeneracy`` is the
    spectral constraint to enforce ('none', 'single' or 'double') through
    a quadratic gap penalty, and ``coupling_norm``, when set, fixes
    |J| = sqrt(jx^2+jy^2+jz^2) by rescaling the couplings.
    """

    target: str
    bounds: dict
    frozen: dict = field(default_factory=dict)
    degeneracy: str = "none"
    coupling_norm: float = None
    distance_weight: float = 1.0
    purity_weight: float = 0.0
    degeneracy_weight: float = 100.0
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
    seed: int


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
    target = spec.target if isinstance(spec.target, GateTarget) else None
    if target is None:
        from .constructions import target_gate

        target = target_gate(spec.target)
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
        u = expm(-1j * spec.gate_time * h)
        overlap = abs(np.trace(target.matrix.conj().T @ u))
        dist2 = max(8.0 - 2.0 * overlap, 0.0)
        value = spec.distance_weight * dist2
        if spec.degeneracy != "none":
            energies = np.linalg.eigvalsh(h)
            gap = _degeneracy_violation(energies, spec.degeneracy)
            value += spec.degeneracy_weight * gap**2
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
    inv = makhlin_invariants(expm(-1j * spec.gate_time * build_hamiltonian(params)))
    target_inv = makhlin_invariants(target)
    inv_gap = abs(inv.g1 - target_inv.g1) + abs(inv.g2 - target_inv.g2)
    converged = gate_report.distance_phase_opt < spec.distance_threshold
    return OptimizeResult(
        params=params,
        report=gate_report,
        objective=best_val,
        converged=bool(converged),
        invariant_gap=float(inv_gap),
        objective_history=tuple(history),
        evaluations=counter["n"],
        seed=spec.seed,
    )


# ---------------------------------------------------------------------------
# Landscape sweep (the purity-decay-rate heatmap)


@dataclass
class SweepGrid:
    """A 2-D grid over two controls with the rest fixed or closed.

    ``closure='jx_from_norm'`` solves jx >= 0 from the fixed coupling
    norm |J| at every cell; cells with jy^2 + jz^2 > |J|^2 are marked
    infeasible. ``degeneracy_tol`` (reduced units) is the classification
    tolerance used for labelling grid cells, necessarily coarser than the
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
        if self.closure not in (None, "jx_from_norm"):
            raise InvalidParameterError("closure must be None or 'jx_from_norm'")
        if self.closure == "jx_from_norm" and self.coupling_norm is None:
            raise InvalidParameterError("closure requires coupling_norm")
        self.values1 = np.asarray(self.values1, dtype=float)
        self.values2 = np.asarray(self.values2, dtype=float)
        if self.values1.size == 0 or self.values2.size == 0:
            raise InvalidParameterError("each grid axis needs at least one value")

    def cell_params(self, v1, v2):
        values = dict(self.fixed)
        values[self.param1] = float(v1)
        values[self.param2] = float(v2)
        if self.closure == "jx_from_norm":
            residual = self.coupling_norm**2 - values.get("jy", 0.0) ** 2 - values.get("jz", 0.0) ** 2
            if residual < 0:
                return None
            values["jx"] = np.sqrt(residual)
        return HamiltonianParams(**{n: values.get(n, 0.0) for n in PARAM_NAMES})


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

    def _near_min_cells(self, values, slack):
        """Feasible cells within ``slack`` of the feasible minimum; none if none is feasible."""
        if not self.feasible.any():
            return set()
        values = np.where(self.feasible, values, np.inf)
        return set(zip(*np.where(values <= np.min(values) + slack)))

    def argmin_cells(self, slack=1e-9):
        """Feasible cells whose rate is within ``slack`` of the minimum."""
        return self._near_min_cells(self.decay_rate, slack)

    def min_pair_gap_cells(self, slack=1e-9):
        return self._near_min_cells(self.pair_gap, slack)

    def to_records(self):
        records = []
        for i, v1 in enumerate(self.grid.values1):
            for j, v2 in enumerate(self.grid.values2):
                records.append(
                    {
                        self.grid.param1: float(v1),
                        self.grid.param2: float(v2),
                        "feasible": bool(self.feasible[i, j]),
                        "dpdt0": float(self.decay_rate[i, j]),
                        "degeneracy_class": str(self.classification[i, j]),
                        "min_gap": float(self.min_gap[i, j]),
                        "pair_gap": float(self.pair_gap[i, j]),
                        "ground_gap": float(self.ground_gap[i, j]),
                        "reason": str(self.reason[i, j]),
                    }
                )
        return records


def _sweep_cell(grid, nm, v1, v2):
    params = grid.cell_params(v1, v2)
    if params is None:
        return (np.nan, "none", np.nan, np.nan, np.nan, False, "infeasible: |J| closure")
    try:
        es = eigensystem(build_hamiltonian(params))
        rep = classify_degeneracy(es, tol=grid.degeneracy_tol * np.pi)
        rate = abs(initial_purity_slope(params, nm))
        return (
            rate,
            rep.classification,
            rep.min_gap / np.pi,
            rep.pair_gap_measure / np.pi,
            rep.pair_gaps[0] / np.pi,
            True,
            "",
        )
    except (DegengateError, np.linalg.LinAlgError) as exc:  # numerical failures stay per cell
        return (np.nan, "none", np.nan, np.nan, np.nan, False, f"error: {exc}")


def sweep(grid: SweepGrid, nm: NoiseModel):
    """Evaluate |dP/dt| at t=0 and degeneracy diagnostics on every cell.

    Cells are evaluated one after another in index order: each cell is a
    few small numpy calls, and a thread pool made the sweep slower.
    """
    n1, n2 = len(grid.values1), len(grid.values2)
    decay = np.full((n1, n2), np.nan)
    classification = np.full((n1, n2), "none", dtype=object)
    min_gap = np.full((n1, n2), np.nan)
    pair_gap = np.full((n1, n2), np.nan)
    ground_gap = np.full((n1, n2), np.nan)
    feasible = np.zeros((n1, n2), dtype=bool)
    reason = np.full((n1, n2), "", dtype=object)

    for i, v1 in enumerate(grid.values1):
        for j, v2 in enumerate(grid.values2):
            (decay[i, j], classification[i, j], min_gap[i, j], pair_gap[i, j],
             ground_gap[i, j], feasible[i, j], reason[i, j]) = _sweep_cell(grid, nm, v1, v2)
    return SweepResult(
        grid=grid,
        decay_rate=decay,
        classification=classification,
        min_gap=min_gap,
        pair_gap=pair_gap,
        ground_gap=ground_gap,
        feasible=feasible,
        reason=reason,
    )


def fig1_grid(n=41, jy_range=(0.10, 1.70), jz_range=(0.48, 2.08), delta=1.0,
              coupling_norm=np.sqrt(4.25)):
    """The (Jy, Jz) landscape grid with |J| fixed and locals constant.

    Defaults set identical qubits at their optimal points (eps = 0,
    Delta1 = Delta2 = 1) and sweep the couplings over a window whose Jx
    closure disk boundary crosses the double-degeneracy hyperbola
    Jy Jz = Delta^2 exactly at the grid point (0.5, 2.0); that crossing
    is where the landscape attains its minimum decay rate. (Only one of
    the two symmetric crossings lies in the window; the sigma_z-coupled
    baths make the rate lower on the Jz-dominant branch.)
    """
    return SweepGrid(
        param1="jy",
        param2="jz",
        values1=np.linspace(*jy_range, n),
        values2=np.linspace(*jz_range, n),
        fixed={"delta1": delta, "delta2": delta},
        closure="jx_from_norm",
        coupling_norm=coupling_norm,
    )


def degeneracy_break_probe(params: HamiltonianParams, expected, nm: NoiseModel,
                           draws=100, radius=0.1, seed=11, gap_floor=1e-4):
    """Check a degeneracy point is a strict rate minimum in its landscape family.

    Perturbs (jy, jz) by up to ``radius`` (relative to |J|) inside the
    fixed-|J| disk, closes jx = +sqrt(|J|^2 - jy^2 - jz^2) and keeps the
    local fields fixed, i.e. moves within exactly the published landscape
    family. Draws that do not actually break the expected degeneracy
    (classification unchanged, or pair gap below ``gap_floor``) are
    redrawn. Returns (number of draws with strictly larger |dP/dt|,
    draws, worst rate ratio).
    """
    rng = np.random.default_rng(seed)
    base = abs(initial_purity_slope(params, nm))
    norm = params.coupling_norm
    if norm <= 0:
        raise InvalidParameterError("the construction has no coupling to perturb")
    worse, total, worst = 0, 0, np.inf
    attempts = 0
    while total < draws:
        attempts += 1
        if attempts > 100 * draws:
            raise InvalidParameterError("could not draw degeneracy-breaking perturbations")
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        step = radius * norm * (0.2 + 0.8 * rng.random())
        jy = params.jy + step * d[0]
        jz = params.jz + step * d[1]
        if jy**2 + jz**2 > norm**2:
            continue
        jx = np.sqrt(norm**2 - jy**2 - jz**2)
        p = params.replace(jx=jx, jy=jy, jz=jz)
        rep = classify_degeneracy(eigensystem(build_hamiltonian(p)), 1e-8)
        broken_gap = (
            rep.pair_gap_measure if expected == "double" else rep.min_gap
        ) / np.pi
        if rep.classification == expected or broken_gap < gap_floor:
            continue
        rate = abs(initial_purity_slope(p, nm))
        total += 1
        worse += rate > base
        worst = min(worst, rate / base)
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
    step: float
    quadratic: dict
    linear: dict
    coherent_linear: dict
    radii: dict
    radius: float
    non_optimal: bool


def sensitivity(params: HamiltonianParams, nm: NoiseModel, budget=1e-4,
                gate_time=None, rel_step=2e-3, linear_tol=1e-6, target=None):
    """Central-difference quadratic sensitivity around an optimum.

    Detunes every nonzero control by +-rel_step (relative), fits the
    quadratic response of the combined error (coherent gate deviation
    plus the change in propagated purity loss), and inverts it for the
    tolerance radius at the given budget.

    When ``target`` is given (a GateTarget or unitary), the coherent error
    is measured against it and a linear term above ``linear_tol`` flags
    the point as non-optimal. Without a target the error is measured
    against the gate the point itself realizes, which is the right notion
    for equivalence-class constructions; that reference is stationary by
    construction, so no optimality check is possible in this mode. A
    ``rel_step`` that is not positive and finite, or a ``budget`` that is
    negative or not finite, raises InvalidParameterError.
    """
    if not (0.0 < rel_step < np.inf and 0.0 <= budget < np.inf):
        raise InvalidParameterError(f"need finite rel_step > 0 and budget >= 0, "
                                    f"got {rel_step}, {budget}")
    if gate_time is None:
        gate_time = params.t0
    if target is None:
        u0 = expm(-1j * gate_time * build_hamiltonian(params))
        check_linear = False
    else:
        u0 = target.matrix if isinstance(target, GateTarget) else np.asarray(target)
        check_linear = True
    base_loss = (
        gate_purity(params, nm, t_final=gate_time, dt=gate_time).loss()
        if nm.alpha > 0.0
        else 0.0
    )

    def coherent(p):
        u = expm(-1j * gate_time * build_hamiltonian(p))
        return 1.0 - abs(np.trace(u0.conj().T @ u)) / 4.0

    def total(p):
        err = coherent(p)
        if nm.alpha > 0.0:
            err += gate_purity(p, nm, t_final=gate_time, dt=gate_time).loss() - base_loss
        return err

    quadratic, linear, coh_linear, radii = {}, {}, {}, {}
    non_optimal = False
    for name in PARAM_NAMES:
        v = getattr(params, name)
        if v == 0.0:
            continue
        dp = abs(v) * rel_step
        p_plus = params.replace(**{name: v + dp})
        p_minus = params.replace(**{name: v - dp})
        e_plus, e_minus = total(p_plus), total(p_minus)
        c_plus, c_minus = coherent(p_plus), coherent(p_minus)
        q = (e_plus + e_minus) / (2.0 * rel_step**2)
        quadratic[name] = float(q)
        linear[name] = float((e_plus - e_minus) / (2.0 * rel_step))
        coh_lin = (c_plus - c_minus) / (2.0 * rel_step)
        coh_linear[name] = float(coh_lin)
        if check_linear and abs(coh_lin) > linear_tol * max(q, 1.0):
            non_optimal = True
        radii[name] = float(np.sqrt(budget / q)) if q > 0 else np.inf
    return SensitivityReport(
        budget=budget,
        step=rel_step,
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


def calibrate(delta_ghz, t1_inverse_ghz, temperature_kelvin=None,
              cutoff_reduced=20.0, temperature_reduced=0.2):
    """Extract the Ohmic coupling from a measured single-qubit 1/T1.

    Solves t1_inverse = S(2 Delta) / pi, the exact relaxation rate of the
    implemented generator (equal to the quoted (pi/2) S(Delta) identity
    times the pinned normalization 4/pi^2 at T -> 0), for alpha, with the
    device numbers in their quoted units. The returned reduced NoiseModel
    is ready for gate runs where the device tunneling amplitude maps to
    one reduced unit; when ``temperature_kelvin`` is omitted the reduced
    temperature defaults to ``temperature_reduced``.
    """
    if delta_ghz <= 0:
        raise InvalidParameterError("delta_ghz must be positive")
    if t1_inverse_ghz < 0:
        raise InvalidParameterError("t1_inverse_ghz must be non-negative")
    if temperature_kelvin is not None:
        t_machine = KB_OVER_H_GHZ_PER_K * temperature_kelvin
        t_reduced = t_machine / delta_ghz
    else:
        t_reduced = temperature_reduced
        t_machine = t_reduced * delta_ghz

    if t1_inverse_ghz == 0.0:
        alpha = 0.0
    else:
        x = delta_ghz / t_machine if t_machine > 0 else np.inf
        coth = 1.0 / np.tanh(x) if np.isfinite(x) else 1.0
        alpha = np.pi * t1_inverse_ghz / (2.0 * delta_ghz * coth)

    flagged = alpha > 0.1
    if flagged:
        warnings.warn(f"calibrated alpha={alpha:g} is outside the weak-coupling regime")
    noise = NoiseModel.from_reduced(
        alpha=alpha, temperature=t_reduced, cutoff=cutoff_reduced
    )
    return CalibrationResult(
        alpha=float(alpha),
        noise=noise,
        energy_unit_ghz=float(delta_ghz),
        temperature_machine=float(t_machine),
        flagged=bool(flagged),
    )
