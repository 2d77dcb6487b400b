"""Config documents: a small INI dialect resolved into RunConfig.

Sections: [grid], [exponents], [delay], [initial], [run], [output].
Values are numbers, booleans, the keyword ``auto``, or expressions in the
grammar of ``expressions``. Unknown sections and keys are rejected with the
offending line; range violations name the key. ``serialize_config`` emits a
canonical document for which parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import hashlib
from importlib import resources

from .errors import ConfigError, ExpressionError
from .expressions import compile_expression
from .solver import RunConfig, resolve_config

_SECTIONS = ("grid", "exponents", "delay", "initial", "run", "output")


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
    return sections


class _Section:
    def __init__(self, name, entries):
        self.name = name
        self.entries = dict(entries)

    def take(self, key, default=None, required=False):
        if key in self.entries:
            value, line = self.entries.pop(key)
            return value, line
        if required:
            raise ConfigError(f"missing required key {key!r} in [{self.name}]", key=key)
        return default, None

    def reject_unknown(self):
        for key, (_, line) in self.entries.items():
            raise ConfigError(f"unknown key {key!r} in [{self.name}]", line=line, key=key)


def _to_float(raw, key, line):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {raw!r}", line=line, key=key)


def _to_int(raw, key, line):
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be an integer, got {raw!r}", line=line, key=key)


def _to_bool(raw, key, line):
    lowered = str(raw).strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}", line=line, key=key)


def _to_float_or_auto(raw, key, line):
    if raw is None or str(raw).strip().lower() == "auto":
        return None
    return _to_float(raw, key, line)


def _check_expression(source, variables, key, line):
    try:
        return compile_expression(source, variables)
    except ExpressionError as exc:
        raise ConfigError(f"{key}: {exc}", line=line, key=key)


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


def parse_config(text) -> RunConfig:
    """Parse and validate a config document into a RunConfig.

    Unset dt / sample_dt / alpha / eps stay None (resolved at run time so
    sweeps re-derive CFL-safe steps per point).
    """
    raw = _parse_sections(text)
    sections = {name: _Section(name, raw.get(name, {})) for name in _SECTIONS}

    grid_sec = sections["grid"]
    dim_raw, dim_line = grid_sec.take("dimension", "1")
    dimension = _to_int(dim_raw, "dimension", dim_line)
    if dimension not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {dimension}",
                          line=dim_line, key="dimension")
    if dimension == 1:
        length_raw, ln = grid_sec.take("length", "1.0")
        nodes_raw, nn = grid_sec.take("nodes", "201")
        lengths = (_to_float(length_raw, "length", ln),)
        nodes = (_to_int(nodes_raw, "nodes", nn),)
    else:
        lx, lxl = grid_sec.take("length_x", "1.0")
        ly, lyl = grid_sec.take("length_y", "1.0")
        nx, nxl = grid_sec.take("nodes_x", "65")
        ny, nyl = grid_sec.take("nodes_y", "65")
        lengths = (_to_float(lx, "length_x", lxl), _to_float(ly, "length_y", lyl))
        nodes = (_to_int(nx, "nodes_x", nxl), _to_int(ny, "nodes_y", nyl))
    grid_sec.reject_unknown()

    exp_sec = sections["exponents"]
    m_raw, m_line = exp_sec.take("m", required=True)
    p_raw, p_line = exp_sec.take("p", required=True)
    lh_a_raw, lh_a_line = exp_sec.take("log_holder_a", "10.0")
    lh_d_raw, lh_d_line = exp_sec.take("log_holder_delta", "0.5")
    exp_sec.reject_unknown()

    delay_sec = sections["delay"]
    mu1_raw, mu1_line = delay_sec.take("mu1", required=True)
    mu2_raw, mu2_line = delay_sec.take("mu2")
    table_raw, table_line = delay_sec.take("mu2_table")
    tau1_raw, tau1_line = delay_sec.take("tau1", required=True)
    tau2_raw, tau2_line = delay_sec.take("tau2", required=True)
    ntau_raw, ntau_line = delay_sec.take("n_tau", "16")
    delay_sec.reject_unknown()

    init_sec = sections["initial"]
    u0_raw, u0_line = init_sec.take("u0", required=True)
    u1_raw, u1_line = init_sec.take("u1", required=True)
    f0_raw, f0_line = init_sec.take("f0", "0")
    scale_raw, scale_line = init_sec.take("scale", "1.0")
    init_sec.reject_unknown()

    run_sec = sections["run"]
    t_end_raw, t_end_line = run_sec.take("t_end", required=True)
    dt_raw, dt_line = run_sec.take("dt", "auto")
    nrho_raw, nrho_line = run_sec.take("n_rho", "32")
    thr_raw, thr_line = run_sec.take("threshold", "1e6")
    override_raw, override_line = run_sec.take("override_conditions", "false")
    nosrc_raw, nosrc_line = run_sec.take("disable_source", "false")
    freeze_raw, freeze_line = run_sec.take("freeze_velocity", "false")
    seed_raw, seed_line = run_sec.take("seed", "1234")
    alpha_raw, alpha_line = run_sec.take("alpha", "auto")
    eps_raw, eps_line = run_sec.take("eps", "auto")
    run_sec.reject_unknown()

    out_sec = sections["output"]
    sample_raw, sample_line = out_sec.take("sample_dt", "auto")
    factor_raw, factor_line = out_sec.take("decay_factor", "0.01")
    out_sec.reject_unknown()

    svars = ("x",) if dimension == 1 else ("x", "y")
    _check_expression(m_raw, svars, "m", m_line)
    _check_expression(p_raw, svars, "p", p_line)
    _check_expression(u0_raw, svars, "u0", u0_line)
    _check_expression(u1_raw, svars, "u1", u1_line)
    _check_expression(f0_raw, svars + ("s",), "f0", f0_line)

    if mu2_raw is not None and table_raw is not None:
        raise ConfigError("give either mu2 or mu2_table, not both",
                          line=table_line, key="mu2_table")
    mu2_table = None
    if table_raw is not None:
        mu2_table = _parse_mu2_table(table_raw, "mu2_table", table_line)
        mu2 = None
    else:
        mu2 = mu2_raw if mu2_raw is not None else "0"
        _check_expression(mu2, ("tau",), "mu2", mu2_line)

    cfg = RunConfig(
        dimension=dimension,
        lengths=lengths,
        nodes=nodes,
        m=m_raw,
        p=p_raw,
        log_holder_bound=_to_float(lh_a_raw, "log_holder_a", lh_a_line),
        log_holder_delta=_to_float(lh_d_raw, "log_holder_delta", lh_d_line),
        mu1=_to_float(mu1_raw, "mu1", mu1_line),
        mu2=mu2,
        mu2_table=mu2_table,
        tau1=_to_float(tau1_raw, "tau1", tau1_line),
        tau2=_to_float(tau2_raw, "tau2", tau2_line),
        n_tau=_to_int(ntau_raw, "n_tau", ntau_line),
        u0=u0_raw,
        u1=u1_raw,
        f0=f0_raw,
        scale=_to_float(scale_raw, "scale", scale_line),
        t_end=_to_float(t_end_raw, "t_end", t_end_line),
        dt=_to_float_or_auto(dt_raw, "dt", dt_line),
        n_rho=_to_int(nrho_raw, "n_rho", nrho_line),
        threshold=_to_float(thr_raw, "threshold", thr_line),
        override_conditions=_to_bool(override_raw, "override_conditions", override_line),
        disable_source=_to_bool(nosrc_raw, "disable_source", nosrc_line),
        freeze_velocity=_to_bool(freeze_raw, "freeze_velocity", freeze_line),
        seed=_to_int(seed_raw, "seed", seed_line),
        alpha=_to_float_or_auto(alpha_raw, "alpha", alpha_line),
        eps=_to_float_or_auto(eps_raw, "eps", eps_line),
        sample_dt=_to_float_or_auto(sample_raw, "sample_dt", sample_line),
        decay_factor=_to_float(factor_raw, "decay_factor", factor_line),
    )
    resolve_config(cfg)  # every rule; parse keeps dt and sample_dt unresolved
    return cfg


def _fmt_value(value):
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical document; stable ordering, shortest round-trip floats."""
    lines = ["[grid]", f"dimension = {cfg.dimension}"]
    if cfg.dimension == 1:
        lines += [f"length = {_fmt_value(cfg.lengths[0])}",
                  f"nodes = {cfg.nodes[0]}"]
    else:
        lines += [
            f"length_x = {_fmt_value(cfg.lengths[0])}",
            f"length_y = {_fmt_value(cfg.lengths[1])}",
            f"nodes_x = {cfg.nodes[0]}",
            f"nodes_y = {cfg.nodes[1]}",
        ]
    lines += [
        "",
        "[exponents]",
        f"m = {cfg.m}",
        f"p = {cfg.p}",
        f"log_holder_a = {_fmt_value(cfg.log_holder_bound)}",
        f"log_holder_delta = {_fmt_value(cfg.log_holder_delta)}",
        "",
        "[delay]",
        f"mu1 = {_fmt_value(cfg.mu1)}",
    ]
    if cfg.mu2_table is not None:
        pairs = "; ".join(f"{_fmt_value(t)},{_fmt_value(v)}" for t, v in cfg.mu2_table)
        lines.append(f"mu2_table = {pairs}")
    else:
        lines.append(f"mu2 = {cfg.mu2}")
    lines += [
        f"tau1 = {_fmt_value(cfg.tau1)}",
        f"tau2 = {_fmt_value(cfg.tau2)}",
        f"n_tau = {cfg.n_tau}",
        "",
        "[initial]",
        f"u0 = {cfg.u0}",
        f"u1 = {cfg.u1}",
        f"f0 = {cfg.f0}",
        f"scale = {_fmt_value(cfg.scale)}",
        "",
        "[run]",
        f"t_end = {_fmt_value(cfg.t_end)}",
        f"dt = {_fmt_value(cfg.dt)}",
        f"n_rho = {cfg.n_rho}",
        f"threshold = {_fmt_value(cfg.threshold)}",
        f"override_conditions = {_fmt_value(cfg.override_conditions)}",
        f"disable_source = {_fmt_value(cfg.disable_source)}",
        f"freeze_velocity = {_fmt_value(cfg.freeze_velocity)}",
        f"seed = {cfg.seed}",
        f"alpha = {_fmt_value(cfg.alpha)}",
        f"eps = {_fmt_value(cfg.eps)}",
        "",
        "[output]",
        f"sample_dt = {_fmt_value(cfg.sample_dt)}",
        f"decay_factor = {_fmt_value(cfg.decay_factor)}",
        "",
    ]
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
