"""The run config: ``RunConfig``, its one validator ``resolve_config``, and
its documents, a small INI dialect. ``_KEYS`` lists the document keys that
parsing, serializing, the finite-number rule and the sweep axis all read.

Sections: [grid], [exponents], [delay], [initial], [run], [output].
Values are numbers, booleans, the keyword ``auto``, or expressions in the
grammar of ``expressions``. Unknown sections and keys are rejected with the
offending line; range violations, and expressions that ``resolve_config``
cannot compile or evaluate, name the key, and its line when the document
sets it. ``serialize_config`` emits a canonical document for which
parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import NamedTuple

import numpy as np

from .delay import rho_quadrature, tau_quadrature
from .energetics import alpha_window
from .errors import ConfigError, ExpressionError
from .expressions import compile_expression
from .spaces import ExponentField, Grid, exponent_chain, make_grid

# f0's s = 0 as the history fill's s = -rho*tau is typed: a numpy scalar,
# where 1/s is inf and a negative s to a fractional power is nan
_S0 = np.float64(0.0)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; expression fields keep their source text."""

    dimension: int = 1
    lengths: tuple = (1.0,)
    nodes: tuple = (201,)
    m: str = "2"
    p: str = "3"
    log_holder_bound: float = 10.0
    log_holder_delta: float = 0.5
    mu1: float = 0.5
    mu2: str = "0.1"
    mu2_table: tuple = None
    tau1: float = 0.5
    tau2: float = 1.0
    n_tau: int = 16
    u0: str = "0"
    u1: str = "0"
    f0: str = "0"
    scale: float = 1.0
    t_end: float = 10.0
    dt: float = None
    n_rho: int = 32
    threshold: float = 1e6
    override_conditions: bool = False
    disable_source: bool = False
    freeze_velocity: bool = False
    seed: int = 1234
    alpha: float = None
    eps: float = None
    sample_dt: float = None
    decay_factor: float = 0.01


_SECTIONS = ("grid", "exponents", "delay", "initial", "run", "output")

# Every key after [grid], in document order: (section, document key,
# RunConfig field, kind, document default). A default of None makes the key
# required; mu2_table, when given, replaces mu2. Kinds: number, integer,
# boolean, auto (``auto`` or a number), expression and mu2_table.
# Expressions keep their source text.
_KEYS = (
    ("exponents", "m", "m", "expression", None),
    ("exponents", "p", "p", "expression", None),
    ("exponents", "log_holder_a", "log_holder_bound", "number", "10.0"),
    ("exponents", "log_holder_delta", "log_holder_delta", "number", "0.5"),
    ("delay", "mu1", "mu1", "number", None),
    ("delay", "mu2", "mu2", "expression", "0"),
    ("delay", "mu2_table", "mu2_table", "mu2_table", None),
    ("delay", "tau1", "tau1", "number", None),
    ("delay", "tau2", "tau2", "number", None),
    ("delay", "n_tau", "n_tau", "integer", "16"),
    ("initial", "u0", "u0", "expression", None),
    ("initial", "u1", "u1", "expression", None),
    ("initial", "f0", "f0", "expression", "0"),
    ("initial", "scale", "scale", "number", "1.0"),
    ("run", "t_end", "t_end", "number", None),
    ("run", "dt", "dt", "auto", "auto"),
    ("run", "n_rho", "n_rho", "integer", "32"),
    ("run", "threshold", "threshold", "number", "1e6"),
    ("run", "override_conditions", "override_conditions", "boolean", "false"),
    ("run", "disable_source", "disable_source", "boolean", "false"),
    ("run", "freeze_velocity", "freeze_velocity", "boolean", "false"),
    ("run", "seed", "seed", "integer", "1234"),
    ("run", "alpha", "alpha", "auto", "auto"),
    ("run", "eps", "eps", "auto", "auto"),
    ("output", "sample_dt", "sample_dt", "auto", "auto"),
    ("output", "decay_factor", "decay_factor", "number", "0.01"),
)

_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}

# The keys of the finite-number rule, as (document key, RunConfig field)
_FINITE = tuple((key, field) for _, key, field, kind, _ in _KEYS if kind in ("number", "auto"))
# The sweep axes, as document key -> (RunConfig field, kind): every scalar
# key, and m and p swept as constant exponents
_AXES = {key: (field, kind) for _, key, field, kind, _ in _KEYS
         if kind in ("number", "integer", "auto") or key in ("m", "p")}


def _grid_keys(dimension):
    """[grid] keys of the axis lengths and node counts; the node default."""
    if dimension == 1:
        return ("length",), ("nodes",), "201"
    return ("length_x", "length_y"), ("nodes_x", "nodes_y"), "65"


def auto_dt(lengths, nodes, tau1, n_rho) -> float:
    """CFL-safe step: 0.5 * min(spatial spacing, tau1 * rho spacing)."""
    h_min = min(L / (n - 1) for L, n in zip(lengths, nodes))
    d_rho = rho_quadrature(n_rho)[1]
    return 0.5 * min(h_min, tau1 * d_rho)


class Resolved(NamedTuple):
    """A config that meets every rule, with the fields sampled to check it."""

    config: RunConfig  # dt and sample_dt filled in
    grid: Grid
    m: ExponentField
    p: ExponentField
    mu2: np.ndarray  # delay density on linspace(tau1, tau2, n_tau)
    u0_vals: np.ndarray  # u0, u1 and f0 at s = 0 on the grid, unscaled,
    u1_vals: np.ndarray  # boundary included
    f0_vals: np.ndarray
    f0_fn: object  # the compiled f0(x, s) of the history fill


def _spatial_vars(dimension):
    return ("x",) if dimension == 1 else ("x", "y")


def _field(key, text, variables, env, shape):
    """The compiled closed form of a key and its float samples on env.

    Python float constants raise on a zero division or an overflow, and a
    negative one's fractional power is complex. Either, like a text the
    grammar rejects, is a ConfigError naming the key. The variables are
    numpy values (the grid, and f0's s = 0 as _S0, the scalar type of the
    history fill), which give inf or nan without a warning; the caller
    decides which of those it accepts.
    """
    try:
        expr = compile_expression(text, variables)
        with np.errstate(all="ignore"):
            values = np.asarray(expr(**env))
    except ExpressionError as exc:
        raise ConfigError(f"{key}: {exc}", key=key) from None
    except ArithmeticError as exc:
        raise ConfigError(f"{key}: evaluating {text!r} raises {type(exc).__name__}: {exc}",
                          key=key) from None
    if np.iscomplexobj(values):
        raise ConfigError(f"{key}: {text!r} takes complex values", key=key)
    return expr, np.broadcast_to(values, shape).copy()


def _require_finite(key, text, values):
    """ConfigError naming the key and the first non-finite sample, if any."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ConfigError(f"{key}: {text!r} takes the value {float(values[~finite][0])} "
                          "on the grid", key=key)


def resolve_config(cfg: RunConfig) -> Resolved:
    """Check every config rule; fill dt and sample_dt when unset.

    ``parse_config`` runs it on each document and ``build_problem`` on each
    config it is given. A violation raises ConfigError naming the key. Each
    closed form is compiled and sampled once here (f0 at s = 0), so one that
    cannot be parsed or evaluated is a ConfigError too, and so is an
    exponent m or p that is not finite at a node, initial data (u0, u1, f0
    at s = 0) that is not finite at an interior node, and scale * u0 or
    scale * u1 that overflows there. The threshold must
    exceed the sup-norm of scale * u0 over the interior nodes, the nodes a
    run keeps. The grid, the samples and the compiled f0 are returned, so
    ``build_problem`` and ``init_state`` compile and sample none of them
    again.
    """
    if cfg.dimension not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {cfg.dimension}", key="dimension")
    if not len(cfg.lengths) == len(cfg.nodes) == cfg.dimension:
        raise ConfigError(
            f"dimension {cfg.dimension} needs {cfg.dimension} lengths and node counts, "
            f"got {len(cfg.lengths)} and {len(cfg.nodes)}", key="dimension",
        )
    length_keys, node_keys, _ = _grid_keys(cfg.dimension)
    floats = (list(zip(length_keys, cfg.lengths))
              + [(key, getattr(cfg, field)) for key, field in _FINITE]
              + [("mu2_table", value) for row in cfg.mu2_table or () for value in row])
    for key, value in floats:
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}", key=key)

    if cfg.t_end <= 0.0:
        raise ConfigError("t_end must be positive", key="t_end")
    if cfg.threshold <= 0.0:
        raise ConfigError("threshold must be positive", key="threshold")
    if not 0.0 < cfg.log_holder_delta < 1.0:
        raise ConfigError("log_holder_delta must lie in (0, 1)", key="log_holder_delta")
    if cfg.log_holder_bound <= 0.0:
        raise ConfigError("log_holder_a must be positive", key="log_holder_a")
    if cfg.mu1 < 0.0:
        raise ConfigError("mu1 must be nonnegative", key="mu1")
    if not 0.0 < cfg.tau1 < cfg.tau2:
        raise ConfigError("need 0 < tau1 < tau2", key="tau1")
    if cfg.n_tau < 2:
        raise ConfigError("n_tau must be at least 2", key="n_tau")
    if cfg.n_rho < 3:
        raise ConfigError("n_rho must be at least 3", key="n_rho")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}", key="seed")
    if cfg.decay_factor <= 0.0:
        raise ConfigError("decay_factor must be positive", key="decay_factor")

    # make_grid's checks, axis by axis, naming each axis's key
    for axis, (length, n) in enumerate(zip(cfg.lengths, cfg.nodes)):
        if length <= 0.0:
            raise ConfigError(f"domain length must be positive, got {float(length)}",
                              key=length_keys[axis])
        if n < 3:
            raise ConfigError(f"need at least 3 nodes per axis, got {int(n)}",
                              key=node_keys[axis])
    grid = make_grid(cfg.lengths, cfg.nodes)

    # an exponent must be finite at every node, boundary included: the
    # exponent fields and the log-Hoelder check read them all
    svars = _spatial_vars(cfg.dimension)
    env = dict(zip(svars, grid.meshes()))
    _, m_vals = _field("m", cfg.m, svars, env, grid.shape)
    _require_finite("m", cfg.m, m_vals)
    if not m_vals.min() >= 2.0:
        raise ConfigError(
            f"damping exponent m(x) must satisfy m(x) >= 2 everywhere; "
            f"sampled minimum is {float(m_vals.min())}", key="m",
        )
    _, p_vals = _field("p", cfg.p, svars, env, grid.shape)
    _require_finite("p", cfg.p, p_vals)
    if not p_vals.min() >= 1.0:
        raise ConfigError(
            f"source exponent p(x) must satisfy p(x) >= 1 everywhere; "
            f"sampled minimum is {float(p_vals.min())}", key="p",
        )

    tau, _ = tau_quadrature(cfg.tau1, cfg.tau2, cfg.n_tau)
    if cfg.mu2_table is None:
        _, mu2 = _field("mu2", cfg.mu2, ("tau",), {"tau": tau}, tau.shape)
        if not mu2.min() >= 0.0:
            raise ConfigError("delay density mu2 must be nonnegative", key="mu2")
    else:
        table_tau, table_mu2 = np.array(cfg.mu2_table, dtype=float).T
        if table_mu2.min() < 0.0:
            raise ConfigError("delay density mu2_table must be nonnegative", key="mu2_table")
        mu2 = np.interp(tau, table_tau, table_mu2)

    _, u0_vals = _field("u0", cfg.u0, svars, env, grid.shape)
    _, u1_vals = _field("u1", cfg.u1, svars, env, grid.shape)
    f0_fn, f0_vals = _field("f0", cfg.f0, svars + ("s",), {**env, "s": _S0}, grid.shape)
    # a non-finite initial value would surface only as an overflow after the
    # first step; boundary nodes are not checked, as init_state zeroes them
    interior = ~grid.boundary
    for key, text, values in (("u0", cfg.u0, u0_vals), ("u1", cfg.u1, u1_vals),
                              ("f0", cfg.f0, f0_vals)):
        _require_finite(key, text, values[interior])
    # the run starts from scale * u0 and scale * u1, which can overflow
    with np.errstate(over="ignore"):
        scaled = {"u0": cfg.scale * u0_vals[interior], "u1": cfg.scale * u1_vals[interior]}
    for key, values in scaled.items():
        if not np.isfinite(values).all():
            raise ConfigError(f"{key}: scale * {getattr(cfg, key)!r} is not finite on the grid "
                              f"with scale = {cfg.scale:g}", key=key)
    sup0 = float(np.max(np.abs(scaled["u0"])))
    if cfg.threshold <= sup0:
        raise ConfigError(
            f"threshold {cfg.threshold} must exceed the initial sup-norm {sup0}",
            key="threshold",
        )

    dt = cfg.dt
    limit = auto_dt(cfg.lengths, cfg.nodes, cfg.tau1, cfg.n_rho)
    if dt is None:
        dt = limit
    elif dt <= 0.0:
        raise ConfigError("dt must be positive", key="dt")
    elif dt > limit * (1.0 + 1e-9):
        raise ConfigError(
            f"dt={dt} violates the CFL contract dt <= {limit:.6g}", key="dt"
        )
    sample_dt = cfg.sample_dt
    if sample_dt is None:
        sample_dt = max(cfg.t_end / 400.0, dt)
    elif sample_dt <= 0.0:
        raise ConfigError("sample_dt must be positive", key="sample_dt")

    m = ExponentField(grid, m_vals)
    p = ExponentField(grid, p_vals)
    # alpha is used only under the exponent chain
    if cfg.alpha is not None and exponent_chain(m, p):
        window = alpha_window(m, p)
        if not 0.0 < cfg.alpha <= window:
            raise ConfigError(
                f"alpha={cfg.alpha} outside the admissible window (0, {window:.6g}]",
                key="alpha",
            )

    config = replace(cfg, dt=float(dt), sample_dt=float(sample_dt))
    return Resolved(config, grid, m, p, mu2, u0_vals, u1_vals, f0_vals, f0_fn)


def _apply_axis(cfg: RunConfig, key, value) -> RunConfig:
    """cfg with the document key ``key`` of ``_AXES`` set to a sweep value;
    an integer key takes only whole values."""
    if key not in _AXES:
        raise ConfigError(f"sweep key {key!r} is not a scalar config key; choose one of "
                          + ", ".join(_AXES), key=key)
    field, kind = _AXES[key]
    if kind != "integer":
        value = repr(float(value)) if kind == "expression" else float(value)
    elif float(value).is_integer():
        value = int(value)
    else:
        raise ConfigError(f"{key} must be an integer, got {value!r}", key=key)
    return replace(cfg, **{field: value})


def _parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=lineno, column=len(raw))
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno, column=1)
        if current is None:
            raise ConfigError("key outside of any section", line=lineno, column=1)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno, column=1)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", line=lineno, key=key)
        sections[current][key] = (value, lineno)
    return {name: sections.get(name, {}) for name in _SECTIONS}


def _parse_mu2_table(raw, key, line):
    rows = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            tau, value = map(float, chunk.split(","))
        except ValueError:
            raise ConfigError(
                f"{key} entries must be 'tau,value' pairs of numbers, got {chunk!r}",
                line=line, key=key,
            ) from None
        rows.append((tau, value))
    if len(rows) < 2:
        raise ConfigError(f"{key} needs at least two pairs", line=line, key=key)
    taus = [r[0] for r in rows]
    # np.interp would keep only the last of pairs with one tau
    for before, after in zip(taus, taus[1:]):
        if not before < after:
            raise ConfigError(f"{key} taus must be strictly increasing, got {before!r} "
                              f"then {after!r}", line=line, key=key)
    return tuple(rows)


def _convert(kind, raw, key, line):
    """The RunConfig value of a document entry of a kind of _KEYS; a value not
    of its kind raises ConfigError naming the key and line."""
    if kind == "mu2_table":
        return _parse_mu2_table(raw, key, line)
    if kind == "expression":
        return raw
    if kind == "auto" and raw.lower() == "auto":
        return None
    try:
        if kind == "integer":
            return int(raw)
        if kind == "boolean":
            return _BOOLEANS[raw.lower()]
        return float(raw)
    except (KeyError, ValueError):
        noun = {"integer": "an integer", "boolean": "a boolean"}.get(kind, "a number")
        raise ConfigError(f"{key} must be {noun}, got {raw!r}", line=line, key=key)


def parse_config(text) -> RunConfig:
    """Parse and validate a config document into a RunConfig.

    Unset dt / sample_dt / alpha / eps stay None (resolved at run time so
    sweeps re-derive CFL-safe steps per point).
    """
    sections = _parse_sections(text)
    lines = {}  # document key -> its line, for the range errors below

    def take(section, key, kind, default):
        entries = sections[section]
        if key in entries:
            raw, line = entries.pop(key)
            lines[key] = line
        elif default is None:
            raise ConfigError(f"missing required key {key!r} in [{section}]", key=key)
        else:
            raw, line = default, None
        return _convert(kind, raw, key, line)

    dim_line = sections["grid"].get("dimension", (None, None))[1]
    dimension = take("grid", "dimension", "integer", "1")
    if dimension not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {dimension}",
                          line=dim_line, key="dimension")
    length_keys, node_keys, node_default = _grid_keys(dimension)
    values = {
        "dimension": dimension,
        "lengths": tuple(take("grid", key, "number", "1.0") for key in length_keys),
        "nodes": tuple(take("grid", key, "integer", node_default) for key in node_keys),
    }
    delay = sections["delay"]
    if "mu2" in delay and "mu2_table" in delay:
        raise ConfigError("give either mu2 or mu2_table, not both",
                          line=delay["mu2_table"][1], key="mu2_table")
    values["mu2" if "mu2_table" in delay else "mu2_table"] = None  # the one left out
    for section, key, field, kind, default in _KEYS:
        if field not in values:
            values[field] = take(section, key, kind, default)
    for section, entries in sections.items():
        for key, (_, line) in entries.items():
            raise ConfigError(f"unknown key {key!r} in [{section}]", line=line, key=key)

    cfg = RunConfig(**values)
    try:
        resolve_config(cfg)  # every rule; parse keeps dt and sample_dt unresolved
    except ConfigError as exc:
        if exc.key not in lines:
            raise
        raise ConfigError(exc.message, line=lines[exc.key], key=exc.key) from None
    return cfg


def _fmt_value(value):
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):  # mu2_table
        return "; ".join(f"{_fmt_value(t)},{_fmt_value(v)}" for t, v in value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical document; stable ordering, shortest round-trip floats."""
    length_keys, node_keys, _ = _grid_keys(cfg.dimension)
    entries = ([("grid", "dimension", cfg.dimension)]
               + [("grid", key, v) for key, v in zip(length_keys, cfg.lengths)]
               + [("grid", key, v) for key, v in zip(node_keys, cfg.nodes)])
    table = cfg.mu2_table is not None
    entries += [(section, key, getattr(cfg, field)) for section, key, field, _, _ in _KEYS
                if key not in ("mu2", "mu2_table") or (key == "mu2_table") == table]
    lines = []
    for name in _SECTIONS:
        lines += [f"[{name}]"]
        lines += [f"{key} = {_fmt_value(v)}" for section, key, v in entries if section == name]
        lines += [""]
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    # here: hashlib loads OpenSSL's libcrypto, which nothing before analyse
    # needs, unless the process entry has it use CPython's own sha256
    import hashlib
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()


PRESET_NAMES = (
    "conservation",
    "decay_exponential",
    "decay_polynomial",
    "blowup",
    "instability_explore",
)


def load_preset(name) -> str:
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return (resources.files("delaywave") / "presets" / f"{name}.cfg").read_text()
