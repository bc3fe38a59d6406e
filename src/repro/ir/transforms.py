"""IR-to-IR transformations.

The paper's outlook (Section VIII) plans "to unroll the loops of convolutions
and to propagate the constants of the filter masks" — blocked there by
Clang's missing lambda support.  Our frontend has no such limitation, so both
transforms are implemented and exposed as compiler options:

* :func:`propagate_constants` — classic sparse conditional constant folding
  over straight-line code plus algebraic simplification; folds intrinsic
  calls on constant arguments and constant filter-mask reads.
* :func:`unroll_loops` — fully unrolls ``ForRange`` loops with constant
  bounds below a body-size budget, substituting the induction variable.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..intrinsics import python_value
from ..types import BOOL, ScalarType
from .nodes import (
    Assign,
    BinOp,
    BoolConst,
    Call,
    Cast,
    Expr,
    FloatConst,
    ForRange,
    If,
    IntConst,
    KernelIR,
    MaskRead,
    OutputWrite,
    Select,
    Stmt,
    UnOp,
    VarDecl,
    VarRef,
    const_int_value,
    is_const,
)
from .visitors import walk_exprs, walk_stmts


def _const_value(e: Expr):
    if isinstance(e, (IntConst, FloatConst)):
        return e.value
    if isinstance(e, BoolConst):
        return e.value
    return None


def _typed_const_value(e: Expr):
    """Constant value carried in the node's own precision, so folding
    computes exactly what the float32 device code would."""
    v = _const_value(e)
    if v is None or isinstance(v, bool):
        return v
    if e.type is not None:
        return e.type.np_dtype.type(v)
    return v


def _make_const(value, type_: Optional[ScalarType]) -> Expr:
    if isinstance(value, bool):
        return BoolConst(value, BOOL)
    if isinstance(value, (int, np.integer)):
        if type_ is not None and type_.is_float:
            return FloatConst(float(value), type_)
        return IntConst(int(value), type_)
    return FloatConst(float(value), type_)


_FOLDABLE_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}


def fold_expr(e: Expr, env: Dict[str, Expr],
              masks: Optional[Dict[str, np.ndarray]] = None) -> Expr:
    """Bottom-up constant folding of *e* under variable bindings *env*.

    *env* maps variable names to constant expressions; *masks* maps mask
    names to coefficient arrays for folding ``MaskRead`` at constant offsets.
    """
    kids = e.children()
    if kids:
        new_kids = tuple(fold_expr(c, env, masks) for c in kids)
        if any(n is not o for n, o in zip(new_kids, kids)):
            e = e.with_children(*new_kids)

    if isinstance(e, VarRef) and e.name in env:
        bound = env[e.name]
        t = e.type or bound.type
        return _make_const(_const_value(bound), t)

    if isinstance(e, Cast) and is_const(e.operand):
        v = _const_value(e.operand)
        if e.target.is_float:
            return FloatConst(float(v), e.target)
        if e.target == BOOL:
            return BoolConst(bool(v), BOOL)
        return IntConst(int(v), e.target)

    if isinstance(e, UnOp) and is_const(e.operand):
        v = _typed_const_value(e.operand)
        if e.op == "-":
            return _make_const(-v, e.type)
        if e.op == "+":
            return _make_const(v, e.type)
        if e.op == "!":
            return BoolConst(not v, BOOL)
        if e.op == "~":
            return IntConst(~int(v), e.type)

    if isinstance(e, BinOp):
        lv, rv = _const_value(e.lhs), _const_value(e.rhs)
        both_const = is_const(e.lhs) and is_const(e.rhs)
        if both_const and e.op in _FOLDABLE_BINOPS:
            # compute in the result type's precision (float32 on device)
            tl, tr = _typed_const_value(e.lhs), _typed_const_value(e.rhs)
            folded = _FOLDABLE_BINOPS[e.op](tl, tr)
            if isinstance(folded, np.generic):
                folded = folded.item()
            return _make_const(folded, e.type)
        if both_const and e.op == "/" and rv not in (0, 0.0):
            if e.type is not None and e.type.is_integer:
                return _make_const(int(lv) // int(rv)
                                   if (lv >= 0) == (rv >= 0)
                                   else -(-int(lv) // int(rv)), e.type)
            tl, tr = _typed_const_value(e.lhs), _typed_const_value(e.rhs)
            folded = tl / tr
            if isinstance(folded, np.generic):
                folded = folded.item()
            return _make_const(folded, e.type)
        if both_const and e.op == "%" and rv not in (0,):
            return _make_const(int(np.fmod(int(lv), int(rv))), e.type)
        if both_const and e.op in ("<<", ">>", "&", "|", "^"):
            ops = {"<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
                   "&": lambda a, b: a & b, "|": lambda a, b: a | b,
                   "^": lambda a, b: a ^ b}
            return _make_const(ops[e.op](int(lv), int(rv)), e.type)
        # algebraic identities.  Under IEEE 754 x + 0 is not x for
        # x = -0.0, x - (-0.0) is x + 0, and x * 0 is not 0 for NaN,
        # ±inf or negative x: those hold for integers only, so the
        # generated code computes what the simulator computes
        exact = e.type is not None and e.type.is_integer
        if e.op == "+" and exact and lv == 0 and is_const(e.lhs):
            return e.rhs
        if e.op == "+" and exact and rv == 0 and is_const(e.rhs):
            return e.lhs
        if e.op == "-" and rv == 0 and is_const(e.rhs) \
                and (exact or math.copysign(1.0, rv) > 0):
            return e.lhs
        if e.op == "*" and is_const(e.lhs) and lv == 1:
            return e.rhs
        if e.op == "*" and is_const(e.rhs) and rv == 1:
            return e.lhs
        if e.op == "*" and exact and ((is_const(e.lhs) and lv == 0) or
                                      (is_const(e.rhs) and rv == 0)):
            if not _has_side_effects(e):
                return _make_const(0, e.type)

    if isinstance(e, Call) and all(is_const(a) for a in e.args):
        try:
            v = python_value(e.func,
                             *[_typed_const_value(a) for a in e.args])
        except Exception:
            return e
        if e.type is not None and not isinstance(v, bool):
            v = e.type.np_dtype.type(v).item()
        return _make_const(v, e.type)

    if isinstance(e, Select) and is_const(e.cond):
        return e.if_true if _const_value(e.cond) else e.if_false

    if (isinstance(e, MaskRead) and masks is not None
            and e.mask in masks):
        dx = const_int_value(e.dx)
        dy = const_int_value(e.dy)
        if dx is not None and dy is not None:
            coeffs = masks[e.mask]
            h, w = coeffs.shape
            iy, ix = dy + h // 2, dx + w // 2
            if 0 <= iy < h and 0 <= ix < w:
                return FloatConst(float(coeffs[iy, ix]), e.type)

    return e


def _has_side_effects(e: Expr) -> bool:
    from .nodes import AccessorRead
    return any(isinstance(sub, AccessorRead) for sub in walk_exprs(e))


def propagate_constants(kernel: KernelIR,
                        fold_masks: bool = False) -> KernelIR:
    """Propagate constants through the kernel body.

    Locals whose single reaching definition is a constant are substituted;
    constant sub-expressions fold.  With *fold_masks*, reads of
    compile-time-constant Mask objects at constant offsets become literals
    (the paper's planned mask constant propagation).
    """
    mask_arrays = None
    if fold_masks:
        mask_arrays = {
            m.name: np.asarray(m.coefficients)
            for m in kernel.masks
            if m.compile_time_constant and m.coefficients is not None
        }

    # Names assigned more than once (or inside loops/branches) are unsafe to
    # bind; collect them first.
    assigned_counts: Dict[str, int] = {}
    loop_assigned: set = set()

    def scan(body: Sequence[Stmt], in_loop: bool) -> None:
        for s in body:
            if isinstance(s, (VarDecl, Assign)):
                assigned_counts[s.name] = assigned_counts.get(s.name, 0) + 1
                if in_loop:
                    loop_assigned.add(s.name)
            elif isinstance(s, If):
                scan(s.then_body, in_loop)
                scan(s.else_body, in_loop)
            elif isinstance(s, ForRange):
                scan(s.body, True)

    scan(kernel.body, False)

    def bindable(name: str) -> bool:
        return assigned_counts.get(name, 0) == 1 and name not in loop_assigned

    def rewrite(body: Sequence[Stmt], env: Dict[str, Expr]) -> List[Stmt]:
        out: List[Stmt] = []
        for s in body:
            if isinstance(s, VarDecl):
                init = fold_expr(s.init, env, mask_arrays)
                if is_const(init) and bindable(s.name):
                    env[s.name] = init
                out.append(dataclasses.replace(s, init=init))
            elif isinstance(s, Assign):
                value = fold_expr(s.value, env, mask_arrays)
                env.pop(s.name, None)
                out.append(Assign(s.name, value))
            elif isinstance(s, If):
                cond = fold_expr(s.cond, env, mask_arrays)
                if is_const(cond):
                    chosen = s.then_body if _const_value(cond) \
                        else s.else_body
                    out.extend(rewrite(chosen, env))
                else:
                    out.append(If(cond, rewrite(s.then_body, dict(env)),
                                  rewrite(s.else_body, dict(env))))
            elif isinstance(s, ForRange):
                start = fold_expr(s.start, env, mask_arrays)
                stop = fold_expr(s.stop, env, mask_arrays)
                step = fold_expr(s.step, env, mask_arrays)
                inner_env = {k: v for k, v in env.items()
                             if k not in loop_assigned}
                out.append(ForRange(s.var, start, stop, step,
                                    rewrite(s.body, inner_env)))
            elif isinstance(s, OutputWrite):
                out.append(OutputWrite(fold_expr(s.value, env, mask_arrays)))
            else:
                out.append(s)
        return out

    return dataclasses.replace(kernel, body=rewrite(kernel.body, {}))


# --------------------------------------------------------------------------
# Loop unrolling
# --------------------------------------------------------------------------


def _body_size(body: Sequence[Stmt]) -> int:
    return sum(1 for _ in walk_stmts(body))


def _substitute_var(body: Sequence[Stmt], name: str,
                    value: int) -> List[Stmt]:
    binding = {name: IntConst(value)}

    def sub(e: Expr) -> Expr:
        return fold_expr(e, binding)

    out: List[Stmt] = []
    for s in body:
        if isinstance(s, VarDecl):
            out.append(dataclasses.replace(s, init=sub(s.init)))
        elif isinstance(s, Assign):
            out.append(Assign(s.name, sub(s.value)))
        elif isinstance(s, If):
            cond = sub(s.cond)
            if is_const(cond):
                out.extend(_substitute_var(
                    s.then_body if _const_value(cond) else s.else_body,
                    name, value))
            else:
                out.append(If(cond, _substitute_var(s.then_body, name, value),
                              _substitute_var(s.else_body, name, value)))
        elif isinstance(s, ForRange):
            out.append(ForRange(s.var, sub(s.start), sub(s.stop),
                                sub(s.step),
                                _substitute_var(s.body, name, value)))
        elif isinstance(s, OutputWrite):
            out.append(OutputWrite(sub(s.value)))
        else:
            out.append(s)
    return out


def _rename_locals(body: Sequence[Stmt], suffix: str) -> List[Stmt]:
    """Rename VarDecl'd locals in *body* by appending *suffix* so that
    unrolled iterations do not redeclare the same names."""
    declared = {s.name for s in walk_stmts(body) if isinstance(s, VarDecl)}
    if not declared:
        return list(body)
    return _rename_locals_inner(body, suffix, declared)


def _rename_locals_inner(body: Sequence[Stmt], suffix: str,
                         declared: set) -> List[Stmt]:
    def rn(e: Expr) -> Expr:
        kids = e.children()
        if kids:
            e = e.with_children(*(rn(c) for c in kids))
        if isinstance(e, VarRef) and e.name in declared:
            return dataclasses.replace(e, name=e.name + suffix)
        return e

    out: List[Stmt] = []
    for s in body:
        if isinstance(s, VarDecl):
            name = s.name + suffix if s.name in declared else s.name
            out.append(VarDecl(name, rn(s.init), s.type))
        elif isinstance(s, Assign):
            name = s.name + suffix if s.name in declared else s.name
            out.append(Assign(name, rn(s.value)))
        elif isinstance(s, If):
            out.append(If(rn(s.cond),
                          _rename_locals_inner(s.then_body, suffix, declared),
                          _rename_locals_inner(s.else_body, suffix,
                                               declared)))
        elif isinstance(s, ForRange):
            out.append(ForRange(s.var, rn(s.start), rn(s.stop), rn(s.step),
                                _rename_locals_inner(s.body, suffix,
                                                     declared)))
        elif isinstance(s, OutputWrite):
            out.append(OutputWrite(rn(s.value)))
        else:
            out.append(s)
    return out


def unroll_loops(kernel: KernelIR, max_body_stmts: int = 4096) -> KernelIR:
    """Fully unroll constant-trip-count loops (innermost-out).

    Loops whose unrolled size would exceed *max_body_stmts* statements are
    left intact — mirroring a compiler unroll budget.
    """

    def rewrite(body: Sequence[Stmt]) -> List[Stmt]:
        out: List[Stmt] = []
        for s in body:
            if isinstance(s, If):
                out.append(If(s.cond, rewrite(s.then_body),
                              rewrite(s.else_body)))
                continue
            if not isinstance(s, ForRange):
                out.append(s)
                continue
            inner = rewrite(s.body)
            start = const_int_value(fold_expr(s.start, {}))
            stop = const_int_value(fold_expr(s.stop, {}))
            step = const_int_value(fold_expr(s.step, {}))
            if None in (start, stop, step) or step == 0:
                out.append(ForRange(s.var, s.start, s.stop, s.step, inner))
                continue
            values = list(range(start, stop, step))
            if len(values) * _body_size(inner) > max_body_stmts:
                out.append(ForRange(s.var, s.start, s.stop, s.step, inner))
                continue
            for i, v in enumerate(values):
                iteration = _substitute_var(inner, s.var, v)
                out.extend(_rename_locals(iteration, f"_u{s.var}{i}"))
        return out

    return dataclasses.replace(kernel, body=rewrite(kernel.body))
