"""Scenario configuration: the JSON schema, parsing and validation.

A scenario file is one JSON object.  ``experiment`` names the experiment,
``seed`` and ``strain_m`` are top-level numbers, and every other key is a
block of settings.  :data:`SCHEMA` lists each key of each block with its
kind, its default and its bounds or choices; :data:`EXPERIMENTS` lists the
blocks each experiment reads.  :func:`validate_config` checks a config
against both tables and the few rules that tie keys together, before any
computation, and reports every problem found; it returns the config with
each default filled in, and the runners read that.  The CLI maps parse
errors, validation errors, numerical failures and contract failures to
distinct exit codes.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Any, NamedTuple

from .materials import CATALOG_TAGS

#: the default of a key, or the value of a block, that the config must give
REQUIRED = object()


class Key(NamedTuple):
    """One config key.

    ``kind`` is "int", "num", "bool", "str", "ints" or "nums" (non-empty
    lists), "matrix" (a flat row-major list of d*d numbers, d in 1..3) or
    "matrices" (a non-empty list of matrices of one d).  ``default`` is the
    value an absent key takes: REQUIRED, or None where the runner works the
    value out or a rule of :func:`validate_config` requires the key; JSON
    null then means the same as absent.  ``bounds`` holds comma-separated
    terms such as ">= 1" that the value, or each entry of a list, satisfies.
    """

    kind: str
    default: Any = REQUIRED
    bounds: str = ""
    choices: tuple = ()


#: blocks each experiment reads: REQUIRED, or the block used when absent
EXPERIMENTS: dict[str, dict[str, Any]] = {
    "energy": {"domain": REQUIRED, "kernel": REQUIRED, "potential": REQUIRED},
    "density": {"potential": REQUIRED, "density": REQUIRED},
    "sawtooth": {"sawtooth": REQUIRED},
    "laminate": {"laminate": REQUIRED, "potential": {"p": 2.0}},
    "rigidity": {"rigidity": {}},
    "minimize": {"domain": REQUIRED, "kernel": REQUIRED, "potential": REQUIRED,
                 "minimize": REQUIRED},
    "linearize": {"domain": REQUIRED, "micropotential": REQUIRED, "linearize": REQUIRED},
    "localize": {"domain": REQUIRED, "potential": REQUIRED, "localize": REQUIRED},
    "checks": {},
}

#: block -> key -> Key; block "" holds the top-level keys
SCHEMA: dict[str, dict[str, Key]] = {
    "": {"experiment": Key("str", choices=tuple(EXPERIMENTS)),
         "seed": Key("int", 0, ">= 0, < 18446744073709551616"),
         "strain_m": Key("num", 1, ">= 1")},
    "domain": {"dim": Key("int", choices=(1, 2, 3)),
               "lo": Key("num"),
               "hi": Key("num"),
               "n_cells": Key("int", bounds=">= 2"),
               # 0 lets minimize and localize pick their own collar; the CLI
               # checks it on each of their grids with SubdomainMask.collar_fits
               "collar": Key("num", 0.0, ">= 0")},
    # delta for family box, s and p for fractional
    "kernel": {"family": Key("str", choices=("box", "fractional")),
               "delta": Key("num", None, "> 0"),
               "s": Key("num", None, "> 0, < 1"),
               "p": Key("num", None, "> 1")},
    # p for profile power
    "potential": {"profile": Key("str", "power", choices=("power", "quartic")),
                  "p": Key("num", None, "> 1"),
                  "scale": Key("num", 1.0, "> 0")},
    # absent parameters take the catalog's default for the tag; a given one
    # must be among those CATALOG_TAGS lists for the tag
    "micropotential": {"tag": Key("str", choices=tuple(sorted(CATALOG_TAGS))),
                       "s0": Key("num", None, "> 0"),
                       "c": Key("num", None, "> 0")},
    # h: delta/32 when absent
    "sawtooth": {"N": Key("int", bounds=">= 1"),
                 "delta": Key("num", bounds="> 0"),
                 "h": Key("num", None, "> 0")},
    "density": {"matrices": Key("matrices"),
                "order": Key("int", 128, ">= 8"),
                "laminate_search": Key("bool", True)},
    "laminate": {"lam": Key("nums", bounds=">= 0, <= 1"),
                 "n_values": Key("ints", bounds=">= 1")},
    "rigidity": {"trials": Key("int", 5, ">= 1"),
                 "resolution": Key("int", 64, ">= 8")},
    "minimize": {"datum": Key("matrix"),
                 "max_iters": Key("int", 50_000, ">= 1")},
    # support_radius: four grid spacings when absent
    "linearize": {"eps": Key("nums", bounds="> 0"),
                  "field": Key("str", "quadratic", choices=("quadratic", "sinusoid")),
                  "support_radius": Key("num", None, "> 0")},
    # base_cells: domain.n_cells when absent
    "localize": {"datum": Key("matrix"),
                 "n_values": Key("ints", bounds=">= 1"),
                 "delta_law": Key("str", "1/n", choices=("1/n", "1/n^2")),
                 "base_cells": Key("int", None, ">= 8")},
}

_KIND_TEXT = {"int": "an integer", "num": "a number", "bool": "true or false",
              "str": "a string", "ints": "a non-empty list of integers",
              "nums": "a non-empty list of numbers",
              "matrix": "a flat list of d*d numbers for d in 1..3",
              "matrices": "a non-empty list of flat d*d matrices of one d in 1..3"}

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}

_BAD = object()


class ConfigError(Exception):
    """A scenario file problem; ``kind`` is "parse" or "validation"."""

    def __init__(self, kind: str, problems: list[str]):
        self.kind = kind
        self.problems = problems
        super().__init__("; ".join(problems))


def _read(kind: str, v) -> Any:
    """``v`` as a value of ``kind``, integers as ``int``; _BAD if it is not one."""
    if kind == "bool":
        return v if isinstance(v, bool) else _BAD
    if kind == "str":
        return v if isinstance(v, str) else _BAD
    if kind in ("int", "num"):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return _BAD
        if kind == "num":
            return v
        return int(v) if isinstance(v, int) or v.is_integer() else _BAD
    if not isinstance(v, list) or not v:
        return _BAD
    if kind == "matrices":
        items = [_read("matrix", x) for x in v]
        one_d = len({len(x) for x in items if x is not _BAD}) == 1
        return items if one_d and _BAD not in items else _BAD
    items = [_read("int" if kind == "ints" else "num", x) for x in v]
    if _BAD in items or (kind == "matrix" and len(items) not in (1, 4, 9)):
        return _BAD
    return items


def _check(problems: list[str], where: str, key: Key, v) -> Any:
    """``v`` read as ``key`` describes; _BAD after recording each problem."""
    got = _read(key.kind, v)
    if got is _BAD:
        problems.append(f"{where} must be {_KIND_TEXT[key.kind]}")
        return _BAD
    if key.choices and got not in key.choices:
        problems.append(f"{where} must be one of {key.choices}")
        return _BAD
    entries, what = (got, f"{where} entries") if isinstance(got, list) else ([got], where)
    for term in filter(None, key.bounds.split(",")):
        op, bound = term.split()
        if not all(_OPS[op](x, float(bound)) for x in entries):
            problems.append(f"{what} must be {op} {bound}")
            got = _BAD
    return got


def _check_block(problems: list[str], name: str, given) -> dict:
    """Block ``name`` with each key checked and each absent key's default
    filled in; a key that fails its check is left out."""
    if not isinstance(given, dict):
        problems.append(f"{name} must be an object")
        return {}
    spec = SCHEMA[name]
    unknown = sorted(set(given) - set(spec))
    if unknown:
        problems.append(f"unknown {name or 'top-level'} keys: {unknown}")
    prefix = f"{name}." if name else ""
    out = {}
    for key, k in spec.items():
        if key not in given and k.default is REQUIRED:
            problems.append(f"{prefix}{key} is required")
        elif key not in given or (given[key] is None and k.default is None):
            out[key] = k.default
        elif (v := _check(problems, prefix + key, k, given[key])) is not _BAD:
            out[key] = v
    return out


def _check_cross(problems: list[str], cfg: dict) -> None:
    """The rules that tie keys together.  They read only values that passed
    their own check, so no problem is reported twice."""
    dom, kern, pot = (cfg.get(b, {}) for b in ("domain", "kernel", "potential"))
    if "lo" in dom and "hi" in dom and dom["hi"] <= dom["lo"]:
        problems.append("domain.hi must exceed domain.lo")
    needed = [("kernel", key) for key in
              {"box": ("delta",), "fractional": ("s", "p")}.get(kern.get("family"), ())]
    if pot.get("profile") == "power":
        needed.append(("potential", "p"))
    for name, key in needed:
        if key in cfg[name] and cfg[name][key] is None:
            problems.append(f"{name}.{key} is required")
    saw = cfg.get("sawtooth", {})
    if "delta" in saw and saw.get("h") is not None and saw["h"] > saw["delta"] / 16.0:
        problems.append("sawtooth.h must be <= delta/16")
    eps = cfg.get("linearize", {}).get("eps")
    if eps is not None and (len(eps) < 2 or any(b >= a for a, b in zip(eps, eps[1:]))):
        problems.append("linearize.eps must hold >= 2 strictly decreasing numbers")
    mp = cfg.get("micropotential", {})
    for key, v in mp.items():
        if key != "tag" and v is not None and "tag" in mp and key not in CATALOG_TAGS[mp["tag"]]:
            problems.append(f"micropotential.{key} is not read by tag '{mp['tag']}'")
    for name in ("minimize", "localize"):
        datum = cfg.get(name, {}).get("datum")
        if datum is not None and "dim" in dom and len(datum) != dom["dim"] ** 2:
            problems.append(f"{name}.datum must have d*d entries for d = domain.dim "
                            f"= {dom['dim']}")


def _finite(text: str) -> float:
    """A JSON number or constant as a float, if it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError("parse", [f"config holds {text}, which is not a finite number"])
    return value


def _integer(text: str) -> int:
    """A JSON integer, exactly, if it is finite as a float."""
    _finite(text)  # float() takes any digit count and overflows to infinity
    return int(text)


def parse_config(path: str) -> dict:
    """Parse a scenario file; raises ConfigError("parse", ...) on bad JSON,
    including the non-finite numbers that Python's json module would
    otherwise accept: the constants NaN, Infinity and -Infinity, and numbers
    such as 1e999 or a 400-digit integer that overflow to infinity."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite, parse_int=_integer,
                             parse_constant=_finite)
    except OSError as exc:
        raise ConfigError("parse", [f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("parse", [f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError("parse", ["config must be a JSON object"])
    return data


def validate_config(cfg: dict) -> dict:
    """Check ``cfg`` against :data:`SCHEMA`, :data:`EXPERIMENTS` and the
    rules that tie keys together; return it with every default filled in.
    Raises ConfigError("validation", ...) listing every problem found."""
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        raise ConfigError("validation",
                          [f"experiment must be one of {tuple(EXPERIMENTS)}"])
    problems: list[str] = []
    blocks = [name for name in SCHEMA if name]
    out = _check_block(problems, "", {k: v for k, v in cfg.items() if k not in blocks})
    reads = EXPERIMENTS[exp]
    for name in blocks:
        if name in cfg:
            out[name] = _check_block(problems, name, cfg[name])
        elif reads.get(name) is REQUIRED:
            problems.append(f"experiment '{exp}' requires block '{name}'")
        elif name in reads:
            out[name] = _check_block(problems, name, reads[name])
    _check_cross(problems, out)
    if problems:
        raise ConfigError("validation", problems)
    return out
