"""Config documents: a small INI dialect resolved into RunConfig.

Sections: [grid], [exponents], [delay], [initial], [run], [output].
Values are numbers, booleans, the keyword ``auto``, or expressions in the
grammar of ``expressions``. Unknown sections and keys are rejected with the
offending line; range violations name the key, and its line when the
document sets it. ``serialize_config`` emits a canonical document for which
parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import hashlib
from importlib import resources

from .errors import ConfigError, ExpressionError
from .expressions import compile_expression
from .solver import RunConfig, _grid_keys, resolve_config

_SECTIONS = ("grid", "exponents", "delay", "initial", "run", "output")

# Every key after [grid], in document order: (section, document key,
# RunConfig field, kind, document default). A default of None makes the key
# required; mu2_table, when given, replaces mu2. Kinds: number, integer,
# boolean, auto (``auto`` or a number), an expression in x[, y]
# ("expression"), in x[, y], s ("history") or in tau ("density"), and
# mu2_table. Expressions keep their source text.
_KEYS = (
    ("exponents", "m", "m", "expression", None),
    ("exponents", "p", "p", "expression", None),
    ("exponents", "log_holder_a", "log_holder_bound", "number", "10.0"),
    ("exponents", "log_holder_delta", "log_holder_delta", "number", "0.5"),
    ("delay", "mu1", "mu1", "number", None),
    ("delay", "mu2", "mu2", "density", "0"),
    ("delay", "mu2_table", "mu2_table", "mu2_table", None),
    ("delay", "tau1", "tau1", "number", None),
    ("delay", "tau2", "tau2", "number", None),
    ("delay", "n_tau", "n_tau", "integer", "16"),
    ("initial", "u0", "u0", "expression", None),
    ("initial", "u1", "u1", "expression", None),
    ("initial", "f0", "f0", "history", "0"),
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
    if sorted(taus) != taus:
        raise ConfigError(f"{key} pairs must be sorted by tau", line=line, key=key)
    return tuple(rows)


def _convert(kind, raw, key, line, dimension):
    """The RunConfig value of a document entry of a kind of _KEYS; a value not
    of its kind raises ConfigError naming the key and line."""
    if kind == "mu2_table":
        return _parse_mu2_table(raw, key, line)
    if kind in ("expression", "history", "density"):
        variables = ("tau",) if kind == "density" else ("x", "y")[:dimension]
        if kind == "history":
            variables += ("s",)
        try:
            compile_expression(raw, variables)
        except ExpressionError as exc:
            raise ConfigError(f"{key}: {exc}", line=line, key=key)
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

    def take(section, key, kind, default, dimension=None):
        entries = sections[section]
        if key in entries:
            raw, line = entries.pop(key)
            lines[key] = line
        elif default is None:
            raise ConfigError(f"missing required key {key!r} in [{section}]", key=key)
        else:
            raw, line = default, None
        return _convert(kind, raw, key, line, dimension)

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
            values[field] = take(section, key, kind, default, dimension)
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
