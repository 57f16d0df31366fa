"""Precision-parameterized shift-add rotation toolkit with an 8-point DCT
and a JPEG-style quantization/PSNR evaluation harness."""

from .codec import (
    GrayImage,
    PsnrReport,
    PsnrRow,
    decode_block,
    encode_block,
    psnr,
    quant_table_for_quality,
    roundtrip_image,
    sweep,
)
from .dct8 import (
    DctEngine,
    dct2d,
    dct2d_oracle,
    dct8_cordic,
    dct8_oracle,
    idct2d_oracle,
    idct8_oracle,
)
from .fixedpoint import (
    ArithmeticMode,
    FixedPointFormat,
    FixedPointOverflowError,
    OverflowPolicy,
)
from .planner import (
    MicroRotation,
    RotationPlan,
    decompose,
    generate_table,
    reconstruct_angle,
)
from .rotator import (
    CsdScale,
    CsdToleranceError,
    Matrix2,
    Vector2,
    apply_plan,
    csd_scale,
    ideal_rotation_matrix,
    micro_rotate,
    plan_matrix,
)

__version__ = "0.1.0"
