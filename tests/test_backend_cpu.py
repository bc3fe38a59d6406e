"""CPU (C99 + OpenMP) backend: loop-split boundary specialisation."""

import pytest

from repro import Boundary, CodegenOptions
from repro.backends import generate
from repro.errors import CodegenError
from repro.evaluation.variants import _bilateral_ir
from repro.frontend import parse_kernel
from repro.ir import typecheck_kernel

from .helpers import (
    CopyKernel,
    IterationSpace,
    MaskConvolution,
    accessor_for,
    box_mask,
    build_image_pair,
)


def _gen(mode=Boundary.CLAMP, geometry=(512, 512), window=5, **opts):
    src, dst = build_image_pair(64, 64)
    k = MaskConvolution(IterationSpace(dst),
                        accessor_for(src, window, mode),
                        box_mask(window), window // 2, window // 2)
    ir = typecheck_kernel(parse_kernel(k))
    return generate(ir, CodegenOptions(backend="cpu", **opts),
                    launch_geometry=geometry)


class TestStructure:
    def test_balanced_and_named(self):
        srcs = _gen()
        code = srcs.device_code
        assert code.count("{") == code.count("}")
        assert srcs.entry == "MaskConvolution_cpu"
        assert "void MaskConvolution_cpu(" in code

    def test_interior_is_parallel_and_unguarded(self):
        code = _gen().device_code
        interior = code.split("interior fast path")[1] \
            .split("// region")[0]
        assert "bh_clamp" not in interior
        assert "#pragma omp parallel for" in code

    def test_nine_loop_nests(self):
        src = _gen()
        assert src.num_variants == 9
        assert src.device_code.count("for (int gid_y") == 9

    def test_border_strips_use_side_limited_helpers(self):
        code = _gen(mode=Boundary.MIRROR).device_code
        assert "bh_mirror_lo(" in code
        assert "bh_mirror_hi(" in code

    def test_pixel_exact_strips(self):
        # 5x5 window -> 2-pixel border strips
        code = _gen().device_code
        assert "x in 2..510-1, y in 0..2-1" in code or \
            "x in 2..510-1, y in 2..510-1" in code

    def test_constant_mode_predicated(self):
        code = _gen(mode=Boundary.CONSTANT).device_code
        assert "? 0.0f :" in code

    def test_masks_are_static_const(self):
        code = _gen().device_code
        assert "static const float _constcmask[25]" in code

    def test_restrict_qualifiers(self):
        code = _gen().device_code
        assert "float * restrict OUT" in code
        assert "const float * restrict inp" in code

    def test_bilateral_regions(self):
        ir = _bilateral_ir(True, "clamp", 3, 5.0)
        src = generate(ir, CodegenOptions(backend="cpu"),
                       launch_geometry=(4096, 4096))
        assert src.num_variants == 9
        # transcendentals evaluate in double and round once on the CPU
        assert "hip_round_f(exp((double)(" in src.device_code
        assert "expf(" not in src.device_code

    def test_point_operator_single_nest(self):
        src_img, dst = build_image_pair(16, 16)
        k = CopyKernel(IterationSpace(dst), accessor_for(src_img))
        ir = typecheck_kernel(parse_kernel(k))
        code = generate(ir, CodegenOptions(backend="cpu"),
                        launch_geometry=(16, 16))
        assert code.device_code.count("for (int gid_y") == 1


class TestValidation:
    def test_requires_geometry(self):
        src, dst = build_image_pair(16, 16)
        k = CopyKernel(IterationSpace(dst), accessor_for(src))
        ir = typecheck_kernel(parse_kernel(k))
        with pytest.raises(CodegenError, match="geometry"):
            generate(ir, CodegenOptions(backend="cpu"))

    def test_gpu_only_options_rejected(self):
        for kwargs in (dict(use_texture=True), dict(use_smem=True),
                       dict(vectorize=4)):
            with pytest.raises(CodegenError):
                CodegenOptions(backend="cpu", **kwargs).validate()

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(CodegenError):
            CodegenOptions(backend="metal").validate()
