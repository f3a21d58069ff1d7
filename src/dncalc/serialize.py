"""Versioned JSON encoding of scenarios, jets, symbols, DN data and reports.

Rational scalars travel as "p/q" strings so exactness survives the round
trip; a jet is ``{"radial_order", "tangential_order", "terms": [{"index",
"value"}]}``, a sparse list carrying its truncation orders.

A scenario declares the geometry once and a list of tasks.  ``Scenario``
validates it with messages that name the field, and stores each task as
``task_from_json`` returns it: with its defaults filled in and its values
converted.  This module is the one place that knows a task's fields,
defaults and checks; the one-task subcommands and the selftest build their
tasks through ``task_from_json`` too.  Required:
``schema_version`` 1, ``dimension`` n >= 2, ``truncation`` ``{"radial",
"tangential"}`` (both >= 0), ``depth`` >= 1 and a non-empty list ``tasks``.
Optional: ``backend`` "rational" (the only one), ``base_point`` (default
"p0"), ``seed`` (an integer, default 0), ``name`` (not read), ``metric``
"flat" (default), "random" or a table ``{"a,b": jet}`` of g_ab entries,
1-based, the identity's where left out, and ``weight`` "zero" (default),
"random" or a jet.  Each task has a ``kind``, and only the fields its kind
reads (``TASK_FIELDS``); any other field is refused.  They follow, the first
value listed being the default:

- factorize: ``mode`` "scalar" or "gauge"; ``gauge`` "s" or "sigma", refused
  in scalar mode; ``verify`` true or false.
- dn: ``map`` "lambda0" or "lambda1"; ``gauge`` "s" or "sigma", refused for
  lambda0.
- reconstruct: ``method``, required, one of ``RECONSTRUCTION_METHODS``;
  ``order`` min(3, depth - 1), at least 2 for weight-gauge and volume-gauge
  and 0 otherwise; ``prescribe`` ``{"d1V" or "d2V": "true" or a
  rational}``, required by weight-gauge and volume-gauge, refused otherwise.
- counterexample: ``depth`` the scenario's depth, at least 3.
- validate-disk: ``modes`` "8:64" ("lo:hi", expanded by ``mode_ladder``, or a
  list of integers >= 1), whose distinct modes must span an octave: at
  least two, the largest at least twice the smallest; ``depth`` 2, at least
  1; ``weight_rho`` ["1/2", "-1", "1/2"], the rational coefficients of
  V(rho).

An integer field takes an integer or an integer string; a boolean or a
fraction is refused rather than truncated.
"""

from __future__ import annotations

import hashlib
import json

from .diskcheck import mode_ladder
from .dn import DNSymbolData
from .errors import DnCalcError, ScenarioError
from .geometry import BoundaryMetricJet
from .jets import Jet, JetSpace
from .randomgen import random_metric, random_weight
from .scalars import mpq
from .symbols import HomSymbol, XiPoly

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# scalars and jets


def jet_to_json(jet: Jet) -> dict:
    terms = [
        {"index": list(idx), "value": str(v)} for idx, v in sorted(jet.c.items())
    ]
    return {
        "radial_order": jet.kr,
        "tangential_order": jet.ky,
        "terms": terms,
    }


def jet_from_json(space: JetSpace, data: dict) -> Jet:
    try:
        kr = int(data["radial_order"])
        ky = int(data["tangential_order"])
        coeffs = {
            tuple(term["index"]): mpq(str(term["value"]))
            for term in data.get("terms", [])
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError("malformed jet record: %s" % exc) from None
    return space.jet(coeffs, kr, ky)


def coeff_to_json(jet: Jet, imag: bool) -> dict:
    """A polynomial coefficient as its real part and, when nonzero, its
    imaginary part."""
    if imag:
        return {"re": jet_to_json(jet.space.zero(jet.kr, jet.ky)), "im": jet_to_json(jet)}
    return {"re": jet_to_json(jet)}


# ---------------------------------------------------------------------------
# symbols and DN data


def _poly_to_json(poly: XiPoly) -> dict:
    return {
        "degree": poly.deg,
        "terms": [
            {"xi": list(e), "coeff": coeff_to_json(poly.c[e], poly.imag)}
            for e in sorted(poly.c)
        ],
    }


def homsymbol_to_json(sym: HomSymbol) -> dict:
    return {
        "degree": sym.degree,
        "denominator_power": sym.p,
        "even": _poly_to_json(sym.a),
        "odd": _poly_to_json(sym.b),
    }


def metric_upper_to_json(metric: BoundaryMetricJet) -> list:
    nt = metric.n - 1
    return [[jet_to_json(metric.g_upper[a][b]) for b in range(nt)] for a in range(nt)]


def dn_to_json(dn: DNSymbolData) -> dict:
    return {
        "map": dn.map_kind,
        "gauge": dn.gauge_tag,
        "dimension": dn.n,
        "depth": dn.depth,
        "backend": "rational",
        "base_point": dn.ctx.space.base_point,
        "boundary_metric_upper": metric_upper_to_json(dn.boundary_metric),
        "density_sq": jet_to_json(dn.density_sq),
        "grades": {
            str(j): homsymbol_to_json(dn.symbol.grade(j)) for j in dn.symbol.grades()
        },
    }


# ---------------------------------------------------------------------------
# scenarios


#: task kind -> the fields a task of that kind may carry besides ``kind``
TASK_FIELDS = {
    "factorize": ("mode", "gauge", "verify"),
    "dn": ("map", "gauge"),
    "reconstruct": ("method", "order", "prescribe"),
    "counterexample": ("depth",),
    "validate-disk": ("modes", "depth", "weight_rho"),
}

VALID_TASK_KINDS = tuple(TASK_FIELDS)

RECONSTRUCTION_METHODS = (
    "first-order",
    "metric-known-weight",
    "weight-scalar",
    "weight-gauge",
    "volume-gauge",
    "volume-scalar",
)


class Scenario:
    """Validated scenario: geometry plus an ordered task list."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ScenarioError(
                "unsupported schema_version %r (expected %d)" % (version, SCHEMA_VERSION)
            )
        self.raw = raw
        self.n = _int_field(raw, "dimension", minimum=2)
        trunc = raw.get("truncation")
        if not isinstance(trunc, dict):
            raise ScenarioError("field 'truncation' must be an object")
        self.kr = _int_field(trunc, "radial", minimum=0, where="truncation")
        self.ky = _int_field(trunc, "tangential", minimum=0, where="truncation")
        self.depth = _int_field(raw, "depth", minimum=1)
        backend = raw.get("backend", "rational")
        if backend != "rational":
            raise ScenarioError(
                "field 'backend' must be 'rational' (the only scalar backend), got %r"
                % (backend,)
            )
        self.backend = backend
        self.base_point = str(raw.get("base_point", "p0"))
        self.seed = _int_field(raw, "seed") if "seed" in raw else 0
        self.space = JetSpace(self.n, self.base_point)
        self.metric = self._parse_metric(raw.get("metric", "flat"))
        self.weight = self._parse_weight(raw.get("weight", "zero"))
        tasks = raw.get("tasks")
        if not isinstance(tasks, list) or not tasks:
            raise ScenarioError("field 'tasks' must be a non-empty list")
        self.tasks = [task_from_json(task, i, self.depth) for i, task in enumerate(tasks)]

    def _rng(self):
        import random as _random

        return _random.Random(self.seed)

    def _parse_metric(self, spec) -> BoundaryMetricJet:
        sp = self.space
        nt = self.n - 1
        flat = BoundaryMetricJet.flat(sp, self.kr, self.ky)
        if spec == "flat":
            return flat
        if spec == "random":
            return random_metric(self._rng(), sp, self.kr, self.ky)
        if isinstance(spec, dict):
            # entries the table leaves out are those of the identity
            rows = [list(row) for row in flat.g_lower]
            for key, rec in spec.items():
                try:
                    a, b = (int(x) for x in key.split(","))
                except ValueError:
                    raise ScenarioError(
                        "metric keys must look like 'a,b', got %r" % key
                    ) from None
                if not (1 <= a <= nt and 1 <= b <= nt):
                    raise ScenarioError("metric index %r out of range" % key)
                jet = _named("metric entry %r" % key, jet_from_json, sp, rec)
                rows[a - 1][b - 1] = jet
                rows[b - 1][a - 1] = jet
            return _named("metric", BoundaryMetricJet, rows)
        raise ScenarioError("metric must be 'flat', 'random' or a coefficient table")

    def _parse_weight(self, spec) -> Jet:
        sp = self.space
        if spec == "zero":
            return sp.zero(self.kr, self.ky)
        if spec == "random":
            rng = self._rng()
            rng.random()  # same stream as the metric, offset by two 32-bit words
            return random_weight(rng, sp, self.kr, self.ky)
        if isinstance(spec, dict):
            return _named("weight", jet_from_json, sp, spec)
        raise ScenarioError("weight must be 'zero', 'random' or a jet record")


def task_from_json(task, index: int, depth: int) -> dict:
    """Task ``index`` of a scenario whose symbols run to ``depth``, checked
    and stored with its defaults filled in and its values converted: the
    form in which ``runner.task_record`` reads a task."""
    where = "tasks[%d]" % index
    if not isinstance(task, dict):
        raise ScenarioError("%s must be an object" % where)
    kind = task.get("kind")
    if kind not in VALID_TASK_KINDS:
        raise ScenarioError(
            "%s.kind must be one of %s, got %r" % (where, VALID_TASK_KINDS, kind)
        )
    for name in task:
        if name != "kind" and name not in TASK_FIELDS[kind]:
            raise ScenarioError("%s.%s is not a field of a %s task" % (where, name, kind))
    task = dict(task)
    if kind == "factorize":
        mode = task.setdefault("mode", "scalar")
        if mode not in ("gauge", "scalar"):
            raise ScenarioError("%s.mode must be 'gauge' or 'scalar'" % where)
        if mode == "scalar" and "gauge" in task:
            raise ScenarioError("%s.gauge only applies to gauge mode" % where)
        gauge = task.setdefault("gauge", "s" if mode == "gauge" else None)
        if mode == "gauge" and gauge not in ("s", "sigma"):
            raise ScenarioError("%s.gauge must be 's' or 'sigma'" % where)
        if not isinstance(task.setdefault("verify", True), bool):
            raise ScenarioError("%s.verify must be true or false" % where)
    elif kind == "dn":
        map_kind = task.setdefault("map", "lambda0")
        if map_kind not in ("lambda0", "lambda1"):
            raise ScenarioError("%s.map must be 'lambda0' or 'lambda1'" % where)
        if map_kind == "lambda0" and "gauge" in task:
            raise ScenarioError("%s.gauge only applies to lambda1" % where)
        gauge = task.setdefault("gauge", "s" if map_kind == "lambda1" else None)
        if map_kind == "lambda1" and gauge not in ("s", "sigma"):
            raise ScenarioError("%s.gauge must be 's' or 'sigma'" % where)
    elif kind == "reconstruct":
        method = task.get("method")
        if method not in RECONSTRUCTION_METHODS:
            raise ScenarioError(
                "%s.method must be one of %s" % (where, RECONSTRUCTION_METHODS)
            )
        task.setdefault("order", min(3, depth - 1))
        gauge_method = method in ("weight-gauge", "volume-gauge")
        task["order"] = _int_field(
            task, "order", minimum=2 if gauge_method else 0, where=where
        )
        presc = task.get("prescribe")
        if gauge_method:
            if not isinstance(presc, dict) or len(presc) != 1:
                raise ScenarioError(
                    "%s.prescribe must fix exactly one of d1V, d2V" % where
                )
            key = next(iter(presc))
            if key not in ("d1V", "d2V"):
                raise ScenarioError("%s.prescribe key must be d1V or d2V" % where)
            value = presc[key]
            if value != "true":
                label = "%s.prescribe.%s" % (where, key)
                value = _rational(value, label, "'true' or a rational")
            task["prescribe"] = {key: value}
        elif presc is not None:
            raise ScenarioError("%s.prescribe only applies to gauge methods" % where)
    elif kind == "counterexample":
        task.setdefault("depth", depth)
        # the two-root recovery behind it runs to order depth - 1 >= 2
        task["depth"] = _int_field(task, "depth", minimum=3, where=where)
    elif kind == "validate-disk":
        task.setdefault("depth", 2)
        task["depth"] = _int_field(task, "depth", minimum=1, where=where)
        modes = task.get("modes", "8:64")
        task["modes"] = _parse_modes(modes, where)
        rho = task.setdefault("weight_rho", ["1/2", "-1", "1/2"])
        if not isinstance(rho, list):
            raise ScenarioError("%s.weight_rho must be a list of rationals" % where)
        task["weight_rho"] = [
            _rational(c, "%s.weight_rho[%d]" % (where, i), "a rational")
            for i, c in enumerate(rho)
        ]
    return task


def _int_field(obj, name, minimum=None, where=None):
    label = "%s.%s" % (where, name) if where else name
    if name not in obj:
        raise ScenarioError("missing field %r" % label)
    raw = obj[name]
    try:
        # int() would silently truncate a bool or a fraction
        if isinstance(raw, bool) or isinstance(raw, float) and not raw.is_integer():
            raise TypeError
        value = int(raw)
    except (TypeError, ValueError):
        raise ScenarioError("field %r must be an integer" % label) from None
    if minimum is not None and value < minimum:
        raise ScenarioError("field %r must be >= %d" % (label, minimum))
    return value


def _named(label, build, *args):
    """``build(*args)``; a ``DnCalcError`` it raises becomes a ``ScenarioError``
    naming ``label``."""
    try:
        return build(*args)
    except DnCalcError as exc:
        raise ScenarioError("%s: %s" % (label, exc)) from None


def _rational(value, label, expected):
    """``value`` as a rational; else an error: field ``label`` must be ``expected``."""
    try:
        return mpq(str(value))
    except (ValueError, ZeroDivisionError):
        raise ScenarioError("field %r must be %s" % (label, expected)) from None


def _parse_modes(spec, where) -> list:
    if isinstance(spec, str):
        try:
            lo, hi = (int(x) for x in spec.split(":"))
        except ValueError:
            raise ScenarioError(
                "%s.modes must be 'lo:hi' or a list of integers" % where
            ) from None
        if lo < 1 or hi <= lo:
            raise ScenarioError("%s.modes range is empty" % where)
        modes = mode_ladder(lo, hi)
    elif isinstance(spec, list) and all(
        isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in spec
    ):
        modes = list(spec)
    else:
        raise ScenarioError("%s.modes must be 'lo:hi' or a list of integers >= 1" % where)
    # the decay fit needs two distinct modes, the largest at least twice the smallest
    distinct = set(modes)
    if len(distinct) < 2 or max(distinct) < 2 * min(distinct):
        raise ScenarioError(
            "%s.modes must span at least one octave, got %s" % (where, modes)
        )
    return modes


def load_scenario(path: str) -> tuple:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ScenarioError("cannot read scenario file: %s" % exc) from None
    try:
        raw = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "scenario is not valid JSON (line %d column %d): %s"
            % (exc.lineno, exc.colno, exc.msg)
        ) from None
    digest = hashlib.sha256(blob).hexdigest()
    return Scenario(raw), digest


def dump_report(report: dict, path: str | None) -> str:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
