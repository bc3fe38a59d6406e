"""IR transformations: constant propagation, unrolling, CSE, LICM.

The master invariant for every transform: the functional executor must
produce bit-identical results before and after.
"""

import numpy as np
import pytest

from repro import Boundary
from repro.backends.border import Side
from repro.frontend import parse_kernel
from repro.frontend.parser import accessor_objects
from repro.ir import nodes as N
from repro.ir import (
    propagate_constants,
    typecheck_kernel,
    unroll_loops,
)
from repro.ir.optimize import (
    eliminate_common_subexpressions,
    hoist_loop_invariants,
    optimize_for_device,
)
from repro.ir.visitors import iter_all_exprs, walk_stmts
from repro.sim.executor import evaluate_body

from .helpers import (
    BranchKernel,
    ConvolveSyntax,
    IntArithmetic,
    IterationSpace,
    MaskConvolution,
    PositionKernel,
    accessor_for,
    box_mask,
    build_image_pair,
    random_image,
)


def _compiled(kernel_cls, *args, window=3, mode=Boundary.CLAMP, **kwargs):
    src, dst = build_image_pair(12, 10, data=random_image(12, 10, seed=5))
    k = kernel_cls(IterationSpace(dst), accessor_for(src, window, mode),
                   *args, **kwargs)
    return typecheck_kernel(parse_kernel(k)), accessor_objects(k)


def _run(ir, accessors):
    gx, gy = np.meshgrid(np.arange(12), np.arange(10))
    return evaluate_body(ir, accessors, gx, gy, Side.BOTH, Side.BOTH)


TRANSFORMS = [
    ("propagate_constants", lambda k: propagate_constants(k)),
    ("propagate_with_masks",
     lambda k: propagate_constants(k, fold_masks=True)),
    ("unroll", lambda k: unroll_loops(propagate_constants(k))),
    ("cse", eliminate_common_subexpressions),
    ("licm", hoist_loop_invariants),
    ("optimize_for_device", optimize_for_device),
]

KERNELS = [
    ("conv", MaskConvolution, (box_mask(3), 1, 1), {}),
    ("convolve_syntax", ConvolveSyntax, (box_mask(3),), {}),
    ("branch", BranchKernel, (0.5,), {}),
    ("position", PositionKernel, (), {}),
    ("int_arith", IntArithmetic, (), {}),
]


class TestSemanticsPreserved:
    @pytest.mark.parametrize("tname,transform",
                             TRANSFORMS, ids=[t[0] for t in TRANSFORMS])
    @pytest.mark.parametrize("kname,cls,args,kwargs",
                             KERNELS, ids=[k[0] for k in KERNELS])
    def test_transform_preserves_output(self, tname, transform, kname,
                                        cls, args, kwargs):
        ir, accessors = _compiled(cls, *args, **kwargs)
        before = _run(ir, accessors)
        after = _run(transform(ir), accessors)
        np.testing.assert_array_equal(before, after)


class TestConstantPropagation:
    def test_folds_arithmetic(self):
        ir, _ = _compiled(MaskConvolution, box_mask(3), 1, 1)
        folded = propagate_constants(ir)
        loops = [s for s in walk_stmts(folded.body)
                 if isinstance(s, N.ForRange)]
        for loop in loops:
            assert N.const_int_value(loop.start) is not None
            assert isinstance(loop.stop, N.IntConst) or \
                N.const_int_value(loop.stop) is not None

    def test_folds_mask_reads(self):
        ir, _ = _compiled(MaskConvolution, box_mask(3), 1, 1)
        unrolled = unroll_loops(propagate_constants(ir))
        folded = propagate_constants(unrolled, fold_masks=True)
        remaining = [e for e in iter_all_exprs(folded.body)
                     if isinstance(e, N.MaskRead)]
        assert not remaining

    def test_folds_intrinsics(self):
        body = [N.OutputWrite(N.Call("sqrt", (N.FloatConst(4.0),)))]
        k = N.KernelIR("t", ir_pixel(), body)
        folded = propagate_constants(typecheck_kernel(k))
        out = folded.body[0].value
        assert isinstance(out, N.FloatConst)
        assert out.value == pytest.approx(2.0)

    def test_dead_branch_eliminated(self):
        body = [
            N.If(N.BinOp("<", N.IntConst(1), N.IntConst(2)),
                 [N.OutputWrite(N.FloatConst(1.0))],
                 [N.OutputWrite(N.FloatConst(2.0))]),
        ]
        k = typecheck_kernel(N.KernelIR("t", ir_pixel(), body))
        folded = propagate_constants(k)
        assert len(folded.body) == 1
        assert isinstance(folded.body[0], N.OutputWrite)
        assert folded.body[0].value.value == 1.0

    def test_algebraic_identities(self):
        x = N.VarRef("x")
        body = [
            N.VarDecl("x", N.FloatConst(0.0)),
            N.Assign("x", N.BinOp("*", N.FloatConst(1.0),
                                  N.BinOp("-", x, N.FloatConst(0.0)))),
            N.OutputWrite(N.VarRef("x")),
        ]
        k = typecheck_kernel(N.KernelIR("t", ir_pixel(), body))
        folded = propagate_constants(k)
        # x * 1 and x - 0 simplify away: assignment becomes plain x (a
        # Cast at most)
        assign = folded.body[1]
        ops = [e for e in iter_all_exprs([assign])
               if isinstance(e, N.BinOp)]
        assert not ops

    @pytest.mark.parametrize("op,const", [("+", 0.0), ("+", -0.0),
                                          ("*", 0.0), ("-", -0.0)])
    def test_float_identities_that_ieee_breaks_stay(self, op, const):
        # -0.0 + 0.0 is +0.0, and NaN/inf/negative x * 0.0 is not +0.0:
        # folding these would make generated code disagree with the
        # simulator, so only integer arithmetic takes them
        from repro.types import INT

        for pixel, zero, kept in [(ir_pixel(), N.FloatConst(const), True),
                                  (INT, N.IntConst(0), False)]:
            body = [
                N.VarDecl("x", N.FloatConst(1.0) if kept
                          else N.IntConst(1)),
                N.Assign("x", N.BinOp(op, N.VarRef("x"), zero)),
                N.OutputWrite(N.VarRef("x")),
            ]
            k = typecheck_kernel(N.KernelIR("t", pixel, body))
            assign = propagate_constants(k).body[1]
            ops = [e for e in iter_all_exprs([assign])
                   if isinstance(e, N.BinOp)]
            assert bool(ops) == kept, (op, const, pixel)


def ir_pixel():
    from repro.types import FLOAT
    return FLOAT


class TestUnrolling:
    def test_removes_constant_loops(self):
        ir, _ = _compiled(MaskConvolution, box_mask(3), 1, 1)
        unrolled = unroll_loops(propagate_constants(ir))
        loops = [s for s in walk_stmts(unrolled.body)
                 if isinstance(s, N.ForRange)]
        assert not loops

    def test_respects_budget(self):
        ir, _ = _compiled(MaskConvolution, box_mask(3), 1, 1)
        kept = unroll_loops(propagate_constants(ir), max_body_stmts=4)
        loops = [s for s in walk_stmts(kept.body)
                 if isinstance(s, N.ForRange)]
        assert loops             # too big to unroll within the budget

    def test_unrolled_locals_renamed(self):
        ir, _ = _compiled(ConvolveSyntax, box_mask(3))
        unrolled = unroll_loops(propagate_constants(ir))
        names = [s.name for s in walk_stmts(unrolled.body)
                 if isinstance(s, N.VarDecl)]
        assert len(names) == len(set(names)), "duplicate declarations"


class TestCseAndLicm:
    def test_cse_introduces_temps_for_repeats(self):
        from repro.evaluation.variants import _bilateral_ir
        ir = _bilateral_ir(False, "clamp", 2, 5.0)
        out = eliminate_common_subexpressions(ir)
        temps = [s.name for s in walk_stmts(out.body)
                 if isinstance(s, N.VarDecl) and s.name.startswith("_cse")]
        assert temps

    def test_cse_no_temps_without_repeats(self):
        ir, _ = _compiled(PositionKernel)
        out = eliminate_common_subexpressions(ir)
        temps = [s for s in walk_stmts(out.body)
                 if isinstance(s, N.VarDecl)
                 and s.name.startswith("_cse")]
        assert not temps

    def test_licm_moves_centre_read_out(self):
        from repro.evaluation.variants import _bilateral_ir
        ir = _bilateral_ir(True, "clamp", 2, 5.0)
        out = hoist_loop_invariants(ir)
        # the centre read input(0,0) must appear before the outer loop
        pre_loop = []
        for s in out.body:
            if isinstance(s, N.ForRange):
                break
            pre_loop.append(s)
        centre_reads = [e for s in pre_loop
                        for e in iter_all_exprs([s])
                        if isinstance(e, N.AccessorRead)]
        assert centre_reads

    def test_repeated_optimization_is_stable(self):
        from repro.evaluation.variants import _bilateral_ir
        from repro.ir.analysis import count_instruction_mix
        ir = _bilateral_ir(False, "clamp", 2, 5.0)
        once = optimize_for_device(ir)
        twice = optimize_for_device(once)
        m1 = count_instruction_mix(once.body)
        m2 = count_instruction_mix(twice.body)
        assert m2.global_reads == m1.global_reads
        assert m2.sfu == m1.sfu

    def test_no_name_collisions_across_passes(self):
        from repro.evaluation.variants import _bilateral_ir
        ir = optimize_for_device(_bilateral_ir(False, "clamp", 2, 5.0),
                                 passes=3)
        seen = set()
        dupes = []

        def check(body, scope):
            local = set()
            for s in body:
                if isinstance(s, N.VarDecl):
                    if s.name in scope or s.name in local:
                        dupes.append(s.name)
                    local.add(s.name)
                elif isinstance(s, N.ForRange):
                    check(s.body, scope | local)
                elif isinstance(s, N.If):
                    check(s.then_body, scope | local)
                    check(s.else_body, scope | local)
            return local

        check(ir.body, seen)
        assert not dupes
