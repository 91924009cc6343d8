"""Command line front end.

Every subcommand takes a scene, given either as a path to a scene JSON
file or as a model spec like ``kashiwara_point`` or
``kashiwara_point(d0=0, d1=4)``.  Output is byte deterministic; exit
status is 0 for success, 1 for a failed verification, 2 for invalid
input and 3 for an internal error, each failure with one line on stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
from collections.abc import Iterable
from itertools import repeat

from .calculus import ConstructibleFunction, dual, euler_integral, indicator
from .complexes import _canonical_vertices, _text
from .errors import ModelError, SceneSyntaxError
from .indices import hyperfunction_dimension, hyperfunction_index, parity_index, solution_index
from .scenes import (
    MAX_SCENE_CHARS, _SEPARATOR, Scene, _entry_list, _quote_ascii, _write, build_model,
    list_models, parse_scene,
)

# name(key=value, ...): an ASCII name, and the whole spec must match, so a
# trailing newline is refused too
_MODEL_SPEC = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\((.*)\))?", re.DOTALL)
# around keys and values, only the whitespace scene JSON allows
_BLANK = " \t\n\r"
# a parameter, and --seed, is written as scene JSON writes an integer: ASCII
# digits, with no sign but a minus, no underscores and no other script's digits
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(value: str) -> int:
    """value as an integer, else the usage error argparse prints for it"""
    try:
        if _INTEGER.fullmatch(value):
            return int(value)  # past Python's digit limit, ValueError
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")


def _parse_params(raw: str, context: str) -> dict[str, int]:
    params: dict[str, int] = {}
    for piece in raw.split(","):
        piece = piece.strip(_BLANK)
        if not piece:
            continue
        key, eq, value = piece.partition("=")
        key, value = key.strip(_BLANK), value.strip(_BLANK)
        if not eq or not key:
            raise ModelError(f"cannot parse parameter {piece!r} in {context}")
        if key in params:
            raise ModelError(f"parameter {key!r} given twice in {context}")
        try:
            params[key] = _integer(value)
        except argparse.ArgumentTypeError:
            raise ModelError(f"parameter {key!r} needs an integer, got {value!r}") from None
    return params


def load_scene(spec: str) -> Scene:
    """A scene file path, or a model spec such as name(k=v, ...)."""
    if os.path.exists(spec):
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read(MAX_SCENE_CHARS + 1)
        except UnicodeDecodeError as err:
            raise SceneSyntaxError(f"scene file is not UTF-8 text: {err.reason}") from None
        # Python holds an ASCII text at one byte a character and any other at
        # 1, 2 or 4 bytes a character, by its widest one, behind a longer
        # header: the bound weighs the text as it is held
        if sys.getsizeof(text) - sys.getsizeof("") > MAX_SCENE_CHARS:
            raise SceneSyntaxError(
                f"scene file holds more than the limit of {MAX_SCENE_CHARS} characters"
                if text.isascii() else
                f"scene file takes more than the limit of {MAX_SCENE_CHARS} bytes as text"
            )
        return parse_scene(text)
    match = _MODEL_SPEC.fullmatch(spec)
    if match is None:
        raise ModelError(f"no scene file {spec!r}, and it does not look like a model spec")
    name, raw = match.group(1), match.group(2)
    return build_model(name, **_parse_params(raw or "", f"model spec {spec!r}"))


def _parse_at(raw: str, scene: Scene | None = None) -> tuple[str, ...]:
    """The simplex --at names; given the scene, it must lie on its real form."""
    vertices = list(filter(None, _SEPARATOR.split(raw)))
    if not vertices:
        raise ModelError("--at needs at least one vertex name")
    at = _canonical_vertices(vertices)
    if scene is not None and not scene.pair.real_form.has(at):
        raise ModelError(f"{_text(at)} is not a simplex of the real form {scene.real_form_name!r}")
    return at


def _json_out(obj) -> int:
    print(_write(obj, _quote_ascii))
    return 0


def _value_out(args, value: int, doc: dict) -> int:
    """One value: doc under --json, else the value alone."""
    print(_write(doc, _quote_ascii) if args.json else value)
    return 0


def _value_rows(phi, include_zeros: bool) -> Iterable[tuple[tuple, int]]:
    """phi's (simplex, value) pairs in canonical order, zeros too with include_zeros"""
    if include_zeros:
        order = phi.ambient.ordered()
        return zip(order, map(phi._lookup().get, order, repeat(0)))
    return phi.items


def _print_table(phi, include_zeros: bool) -> None:
    sys.stdout.writelines(f"{_text(s)}\t{v}\n" for s, v in _value_rows(phi, include_zeros))


def _scene_function(scene: Scene, spec: str, allow_hyper: bool) -> tuple[str, ConstructibleFunction]:
    if spec == "solution_index":
        return spec, solution_index(scene.cycle, scene.ambient)
    if spec == "hyperfunction_index" and allow_hyper:
        return spec, hyperfunction_index(scene.pair, scene.cycle)
    prefix, _, sub_name = spec.partition(":")
    if prefix == "indicator" and sub_name:
        return spec, indicator(scene.subcomplex(sub_name))
    hyper = ", hyperfunction_index" if allow_hyper else ""
    raise ModelError(f"unknown function {spec!r}; use solution_index{hyper} or indicator:NAME")


def _cmd_check(scene: Scene, args) -> int:
    """parse and validate a scene, print a summary"""
    summary = {
        "scene": scene.name,
        "valid": True,
        "vertices": len(scene.ambient.vertices),
        "simplices": len(scene.ambient),
        "dimension": scene.ambient.dim,
        "real_form": {
            "name": scene.real_form_name,
            "simplices": len(scene.pair.real_form.simplices),
            "complex_dim": scene.pair.complex_dim,
            "conjugation": scene.pair.conjugation is not None,
        },
        "strata": sorted(st.name for st in scene.cycle),
        "probes": len(scene.pair.probes),
        "checks": scene.expect.checks,
    }
    if args.json:
        return _json_out(summary)
    rf = summary["real_form"]
    print(f"scene: {summary['scene']}")
    print(
        f"complex: {summary['vertices']} vertices, "
        f"{summary['simplices']} simplices, dimension {summary['dimension']}"
    )
    print(
        f"real form: {rf['name']} ({rf['simplices']} simplices), "
        f"complex_dim {rf['complex_dim']}, "
        f"conjugation {'present' if rf['conjugation'] else 'none'}"
    )
    print(f"strata: {', '.join(summary['strata']) or 'none'}")
    print(f"probes: {summary['probes']}")
    print(f"declared checks: {', '.join(summary['checks']) or 'none'}")
    print("ok")
    return 0


def _cmd_index(scene: Scene, args) -> int:
    """solution index on the ambient complex"""
    phi = solution_index(scene.cycle, scene.ambient)
    return _function_output(scene, "solution_index", phi, args)


def _cmd_parity(scene: Scene, args) -> int:
    """mod-2 parity function on the real form"""
    alpha = parity_index(scene.pair, scene.cycle)
    return _function_output(scene, "parity_index", alpha, args, on_real_form=True)


def _cmd_dual(scene: Scene, args) -> int:
    """combinatorial dual of a scene function"""
    label, phi = _scene_function(scene, args.function, allow_hyper=False)
    return _function_output(scene, f"dual[{label}]", dual(phi), args)


def _function_output(scene: Scene, label: str, phi, args, on_real_form: bool = False) -> int:
    if args.at is not None:
        at = _parse_at(args.at, scene if on_real_form else None)
        value = phi.value(at)
        return _value_out(args, value, {
            "scene": scene.name, "function": label, "at": at, "value": value,
        })
    if args.json:
        return _json_out({
            "scene": scene.name, "function": label,
            "values": _entry_list(_value_rows(phi, args.all)),
        })
    _print_table(phi, args.all)
    return 0


def _cmd_hyperdim(scene: Scene, args) -> int:
    """hyperfunction index and dimension on the real form"""
    hyper = hyperfunction_index(scene.pair, scene.cycle)
    dimension, reason = None, "singular stratum"
    if all(st.smooth for st in scene.cycle):
        try:
            dimension = hyperfunction_dimension(scene.pair, scene.cycle)
        except ModelError as err:  # a stratum misses the real form
            reason = str(err)
    if args.at is not None:
        at = _parse_at(args.at, scene)
        value = hyper.value(at)
        return _value_out(args, value, {
            "scene": scene.name, "at": at, "hyperfunction_index": value,
            "hyperfunction_dimension": None if dimension is None else dimension.value(at),
        })
    if args.json:
        return _json_out({
            "scene": scene.name,
            "hyperfunction_index": _entry_list(_value_rows(hyper, args.all)),
            "hyperfunction_dimension": (
                None if dimension is None else _entry_list(_value_rows(dimension, args.all))
            ),
        })
    print("hyperfunction_index:")
    _print_table(hyper, args.all)
    if dimension is None:
        print(f"hyperfunction_dimension: not applicable ({reason})")
    else:
        print("hyperfunction_dimension:")
        _print_table(dimension, args.all)
    return 0


def _cmd_integrate(scene: Scene, args) -> int:
    """Euler integral of a scene function"""
    label, phi = _scene_function(scene, args.function, allow_hyper=True)
    value = euler_integral(phi)
    return _value_out(args, value, {"scene": scene.name, "function": label, "value": value})


def _internal_error(err: Exception) -> int:
    print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
    return 3


def _cmd_verify(scene: Scene, args) -> int:
    """run every check and report"""
    try:
        report = scene.verify(seed=args.seed)
    except Exception as err:  # the scene parsed, so a failure here is the program's
        return _internal_error(err)
    print(_write(report.to_json_obj(), _quote_ascii) if args.json else report.to_text())
    return 0 if report.passed else 1


def _cmd_models(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise ModelError(f"models list takes no model name or parameters, got {args.name!r}")
        if args.json:
            return _json_out([
                {
                    "name": info.name,
                    "summary": info.summary,
                    "params": [
                        {field: getattr(p, field) for field in p._fields} for p in info.params
                    ],
                }
                for info in list_models()
            ])
        for info in list_models():
            print(f"{info.name}: {info.summary}")
            for p in info.params:
                print(f"  {p.name}={p.default} (min {p.minimum}, max {p.maximum}): {p.meaning}")
        return 0
    # emit
    if args.name is None:
        raise ModelError("models emit needs a model name")
    params = _parse_params(",".join(args.params), f"models emit {args.name}")
    scene = build_model(args.name, **params)
    sys.stdout.write(scene.canonical_text)
    return 0


def _add_scene_command(sub, name: str, handler, at: bool = True):
    """The subcommand name, run by handler(scene, args) and described by
    its docstring."""
    p = sub.add_parser(name, help=handler.__doc__)
    p.set_defaults(handler=lambda args: handler(load_scene(args.scene), args))
    p.add_argument("scene", help="scene file or model spec like name(k=v, ...)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if at:
        p.add_argument("--at", help="evaluate at one simplex: comma or space separated vertices")
        p.add_argument("--all", action="store_true", help="include zero values in tables")
    return p


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one stderr line, like every other invalid input."""

    def error(self, message):
        print(f"error: {self.prog}: {message}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    """Run one command.  A run builds one scene, reads it and ends, and
    makes no reference cycle it needs freed, yet each full pass of the
    cycle collector walks every face again: the collector is off while main
    runs, and the caller's setting is back when it returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = _Parser(
        prog="cfcalc",
        description="exact local index calculations on finite simplicial complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_scene_command(sub, "check", _cmd_check, at=False)
    _add_scene_command(sub, "index", _cmd_index)
    _add_scene_command(sub, "hyperdim", _cmd_hyperdim)
    _add_scene_command(sub, "parity", _cmd_parity)

    p = _add_scene_command(sub, "dual", _cmd_dual)
    p.add_argument(
        "--function", default="solution_index",
        help="solution_index (default) or indicator:NAME",
    )

    p = _add_scene_command(sub, "integrate", _cmd_integrate, at=False)
    p.add_argument(
        "--function", default="solution_index",
        help="solution_index (default), hyperfunction_index or indicator:NAME",
    )

    p = _add_scene_command(sub, "verify", _cmd_verify, at=False)
    p.add_argument("--seed", type=_integer, default=0, help="seed for the randomized identities")

    p = sub.add_parser("models", help="list built-in models or emit one as a scene file")
    p.set_defaults(handler=_cmd_models)
    p.add_argument("action", nargs="?", choices=("list", "emit"), default="list")
    p.add_argument("name", nargs="?", help="model name (emit only)")
    p.add_argument("params", nargs="*", help="parameter overrides like k=4 (emit only)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: no message, and stdout goes to devnull so
        # the flush at exit cannot fail again; 141 is 128 + SIGPIPE, the
        # status a shell reports for a tool that SIGPIPE ends
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ModelError, OSError) as err:  # SceneError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        return _internal_error(err)


if __name__ == "__main__":
    sys.exit(main())
