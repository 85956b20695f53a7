"""Experiment configuration: a flat human-readable key = value file with
command-line overrides and a canonical serialization that round-trips.

Supported value syntax: integers, floats, double-quoted strings, bare
strings, and flat lists of numbers like [0, 0.1, 0.2]. Lines starting with #
are comments. No key is a bool, so ``true`` and ``false`` are bare strings.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field

from .core import DomainError
from .expfam import start_state, student_t_family, student_t_moments

EXPERIMENTS = (
    "student-t-online",
    "dirichlet-online",
    "simplex-compare",
    "flow-equivalence",
    "geodesic-check",
    "lyapunov-suite",
)


# the most steps of a flow's time grid (see ExperimentConfig.dt)
MAX_TIME_STEPS = 10 ** 7

# the Student-t nu that student-t-online accepts. Each sample divides by a
# chi-square(nu) draw V, which is 0, and the sample infinite, with
# probability about 2**(-538 nu): V/2 is Gamma(nu/2), P(V/2 < x) ~ x**(nu/2)
# near 0, and V/2 rounds to 0 below 2**-1075 (4e5 draws at nu = 0.02 and
# 0.03 match it). NU_MIN keeps that under 1e-32 a draw. The generator's
# normalizing constant lgamma(nu/2) ~ (nu/2) log(nu/2) overflows past
# nu = 5.1e305, and NU_MAX stays below that.
NU_MIN = 0.2
NU_MAX = 1e305


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out: str = "runs"
    delta_schedule: str = "1/k"

    # online estimation
    n_steps: int = 10000
    n_traj: int = 10

    # Student-t model
    nu: float = 3.0
    mu_star: float = 0.0
    sigma_star: float = 1.0
    mu0: float = 1.0
    sigma0: float = 2.0

    # Dirichlet perturbation model
    dim: int = 50
    lam: float = -0.3
    truth_concentration: float = 5.0

    # simplex comparison
    n: int = 20
    alpha_list: list = field(default_factory=lambda: [round(0.1 * i, 1) for i in range(10)])
    target: str = "barycenter"
    target_a: float = 1.0
    n_inits: int = 12

    # diagnostics: only flow-equivalence reads dt and t_end. Its default
    # grid, dt 1e-2, gives a deviation of 8.0e-10 at t_end 1 against the
    # tolerance 1e-4 (see experiments.EQUIVALENCE_TOL); a t_end under 1e-2
    # needs a dt set no larger than it. geodesic-check (no grid: see
    # experiments.GEODESIC_POINTS) and lyapunov-suite (t_end 4, 200 steps for
    # the 1-d path and 256 for the 2-d path, each with a companion on every
    # other grid point as the second row of its RK4 batch, on graded grids of
    # stretch 8, the coarsest its budget certifies: see
    # experiments.GRID_STRETCH and LYAPUNOV_STEPS) run fixed instances, and
    # reject any other value of either. flow-equivalence steps on the grid
    # t = 0, dt, ..., round(t_end/dt)*dt, so round(t_end/dt) may be at most
    # MAX_TIME_STEPS: 80 MB of grid, and a path of a few times that
    dt: float = 1e-2
    t_end: float = 1.0

    def validate(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose one of {', '.join(EXPERIMENTS)}")
        # rng.substream keys on the seed's low 64 bits: a seed outside
        # [0, 2**64) would run the same streams as another seed
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.n_steps < 1 or self.n_traj < 1 or self.n_inits < 1:
            raise ConfigError("counts must be positive")
        delta_schedule(self.delta_schedule)
        if self.experiment == "student-t-online":
            if not NU_MIN <= self.nu <= NU_MAX:
                raise ConfigError(f"nu must be in [{NU_MIN}, {NU_MAX}], got {self.nu!r}")
            if self.sigma_star <= 0 or self.sigma0 <= 0:
                raise ConfigError("sigma_star and sigma0 must be positive")
            # the start must be a state of the estimator: escort moments
            # that are finite, in the dual domain and invert into the natural
            # parameter set. A sigma0 tiny beside mu0 rounds mu0^2 + sigma0^2
            # to mu0^2, on the dual boundary
            start = f"mu0 = {self.mu0!r} and sigma0 = {self.sigma0!r}"
            try:
                eta0 = student_t_moments(self.mu0, self.sigma0)
            except OverflowError:
                raise ConfigError(f"the escort moments of {start} overflow") from None
            try:
                start_state(student_t_family(self.nu), eta0)
            except DomainError:
                raise ConfigError(f"{start} give the escort moments {eta0}, which lie outside "
                                  "the dual domain or invert outside the natural parameter "
                                  "set") from None
        if self.experiment == "dirichlet-online":
            if not self.lam < 0:
                raise ConfigError("dirichlet-online requires lam < 0")
            if self.dim < 1:
                raise ConfigError("dim must be >= 1")
            if self.truth_concentration <= 0:
                raise ConfigError("truth_concentration must be positive")
        if self.experiment == "simplex-compare":
            if self.n < 2:
                raise ConfigError("simplex size n must be >= 2")
            if self.target not in ("barycenter", "dirichlet"):
                raise ConfigError("target must be 'barycenter' or 'dirichlet'")
            if self.target == "dirichlet" and self.target_a <= 0:
                raise ConfigError("target_a must be positive for a Dirichlet target")
            if any(a >= 1.0 for a in self.alpha_list):
                raise ConfigError("alpha values must be < 1")
            # set() merges equal numbers, such as 0 and 0.0
            if len(set(self.alpha_list)) != len(self.alpha_list):
                raise ConfigError("alpha values must be distinct")
        if self.experiment in ("flow-equivalence", "geodesic-check", "lyapunov-suite"):
            if self.dt <= 0 or self.t_end <= 0:
                raise ConfigError("dt and t_end must be positive")
            if self.dt > self.t_end:
                raise ConfigError(f"dt must not exceed t_end, got dt = {self.dt!r} "
                                  f"and t_end = {self.t_end!r}: lower dt with t_end")
            # t_end/dt may overflow to inf, which round() cannot take
            steps = self.t_end / self.dt
            if not (math.isfinite(steps) and round(steps) <= MAX_TIME_STEPS):
                raise ConfigError(f"t_end/dt must round to at most {MAX_TIME_STEPS} steps, "
                                  f"got {steps:.3g}")
        if self.experiment in ("geodesic-check", "lyapunov-suite"):
            # config.txt must not record a setting the run ignored
            if (self.dt, self.t_end) != (ExperimentConfig.dt, ExperimentConfig.t_end):
                raise ConfigError(f"{self.experiment} runs fixed instances; "
                                  "dt and t_end cannot be set")
        return self


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _format_value(v) -> str:
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return '"' + v.replace('"', '\\"') + '"'
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    raise ConfigError(f"cannot serialize value {v!r}")


def _parse_value(text: str):
    text = text.strip()
    if not text:
        raise ConfigError("empty value")
    if text.startswith('"') and text.endswith('"'):
        return text[1:-1].replace('\\"', '"')
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [] if not inner else [_parse_value(x) for x in inner.split(",")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text  # bare string


def canonical_dumps(config: ExperimentConfig) -> str:
    """Deterministic serialization: sorted keys, one per line."""
    data = dataclasses.asdict(config)
    lines = [f"{k} = {_format_value(data[k])}" for k in sorted(data)]
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        data[key] = _parse_value(value)
    return _build(data)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _build(data: dict) -> ExperimentConfig:
    if "experiment" not in data:
        raise ConfigError("config must set 'experiment'")
    coerced = {}
    for key, value in data.items():
        f = _FIELDS[key]
        if f.type in ("int", "float") and not _is_number(value):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if f.type == "float":
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        if f.type == "int" and isinstance(value, float):
            if not (math.isfinite(value) and value == int(value)):
                raise ConfigError(f"{key}: expected an integer, got {value!r}")
            value = int(value)
        if f.type == "str" and not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        # canonical_dumps writes one key per line, so a line break cannot round-trip
        if f.type == "str" and "".join(value.splitlines()) != value:
            raise ConfigError(f"{key}: a string may not contain a line break, got {value!r}")
        if f.type == "list" and not (isinstance(value, list)
                                     and all(_is_number(x) for x in value)):
            raise ConfigError(f"{key}: expected a list of numbers")
        # also rejects an int beyond the float range, which would overflow later
        if f.type == "list" and not all(abs(x) <= sys.float_info.max for x in value):
            raise ConfigError(f"{key}: expected finite numbers, got {value!r}")
        coerced[key] = value
    return ExperimentConfig(**coerced).validate()


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply 'key=value' strings from the command line."""
    data = dataclasses.asdict(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown override key {key!r}")
        data[key] = _parse_value(value)
    return _build(data)


def delta_schedule(spec: str, dim: int = 1):
    """Parse a learning-rate schedule. Forms: '1/k', 'c/k', '1/sqrt(k)',
    'c/sqrt(k)', '1/(d*sqrt(k))' (d bound to ``dim``), 'const:c', with c a
    finite positive number."""
    spec = spec.strip().replace(" ", "")
    if spec == "1/(d*sqrt(k))":
        return lambda k: 1.0 / (dim * k ** 0.5)
    if spec.startswith("const:"):
        c = _schedule_constant(spec, spec[len("const:"):])
        return lambda k: c
    if spec.endswith("/k"):
        c = _schedule_constant(spec, spec[:-2])
        return lambda k: c / k
    if spec.endswith("/sqrt(k)"):
        c = _schedule_constant(spec, spec[: -len("/sqrt(k)")])
        return lambda k: c / k ** 0.5
    raise ConfigError(f"unrecognized delta schedule {spec!r}")


def _schedule_constant(spec: str, text: str) -> float:
    try:
        c = float(text)
    except ValueError:
        raise ConfigError(f"delta schedule {spec!r}: {text!r} is not a number") from None
    if not (math.isfinite(c) and c > 0.0):
        raise ConfigError(f"delta schedule {spec!r}: the constant must be finite and positive")
    return c
