"""Model architecture description, parameter counting, and FLOP accounting.

The config describes a decoder-only transformer with low-rank (latent)
attention, a mix of dense FFN layers and routed-expert layers, optional
extra-token prediction blocks appended after the main stack, and an untied
input embedding / output head pair.

Counting conventions, used consistently by the tests and the cost model:

* ``total`` includes every weight in the training graph (extra-token
  prediction blocks included).
* ``activated`` is the per-token working set at serving time: embeddings,
  attention, routed experts actually selected (``top_k``) plus shared
  experts, router, norms and the output head. Extra-token prediction blocks
  are excluded because they are dropped for serving.
* ``activated_matmul`` further excludes embedding tables and norm vectors,
  i.e. only weights that participate in a matmul. A forward pass performs at
  least ``2 * activated_matmul`` FLOPs per token.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .cluster import DTYPE_NAMES
from .errors import EmptySpaceError
from .records import UNBOUNDED, bounded, check_fields, declared, require

# Fitted depth-to-width scaling law: log(hidden) = A + B * num_layers.
DEPTH_WIDTH_INTERCEPT = 5.039
DEPTH_WIDTH_SLOPE = 5.55e-2


@dataclass(frozen=True)
class MlaDims:
    """Dimensions of the low-rank attention path."""

    q_rank: int = bounded(">= 1", default=1536)
    kv_rank: int = bounded(">= 1", default=512)
    head_dim: int = bounded(">= 1", default=128)
    rope_dim: int = bounded(">= 1", default=64)

    def __post_init__(self):
        check_fields(self, "mla.")


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = bounded(">= 0")
    hidden_size: int = bounded(">= 1")
    num_attention_heads: int = bounded(">= 1")
    num_routed_experts: int = bounded(">= 1")
    top_k: int = bounded(">= 1")
    expert_intermediate_size: int = bounded(">= 1")
    num_shared_experts: int = bounded(">= 0", default=1)
    num_dense_layers: int = bounded(">= 0", default=3)
    dense_ffn_intermediate_size: int = bounded(">= 1", default=18432)
    mla: MlaDims = field(default_factory=MlaDims)
    num_mtp_layers: int = bounded(">= 0", default=1)
    vocab_size: int = bounded(">= 1", default=153600)
    seq_len: int = bounded(">= 1", default=8192)
    dtype_bytes: int = 2

    def __post_init__(self):
        check_fields(self)
        if self.dtype_bytes not in DTYPE_NAMES:
            raise ValueError(f"dtype_bytes must be one of {', '.join(map(str, DTYPE_NAMES))}, got {self.dtype_bytes}")
        if self.num_dense_layers > self.num_layers:
            raise ValueError("num_dense_layers exceeds num_layers")
        if self.top_k > self.num_routed_experts:
            raise ValueError("top_k exceeds num_routed_experts")

    @property
    def num_moe_layers(self) -> int:
        return self.num_layers - self.num_dense_layers

    @property
    def expert_param_count(self) -> int:
        """Weights of a single routed expert (gate, up and down matmuls)."""
        return 3 * self.hidden_size * self.expert_intermediate_size


@dataclass(frozen=True)
class ParameterCount:
    total: int
    activated: int
    activated_matmul: int
    per_component: dict


@dataclass(frozen=True)
class FlopProfile:
    forward_per_token: float
    backward_per_token: float
    per_layer: dict


def _attention_params(cfg: ModelConfig) -> int:
    h = cfg.hidden_size
    m = cfg.mla
    heads = cfg.num_attention_heads
    q_down = h * m.q_rank
    q_up = m.q_rank * heads * (m.head_dim + m.rope_dim)
    kv_down = h * m.kv_rank
    k_rope = h * m.rope_dim
    k_up = m.kv_rank * heads * m.head_dim
    v_up = m.kv_rank * heads * m.head_dim
    out_proj = heads * m.head_dim * h
    return q_down + q_up + kv_down + k_rope + k_up + v_up + out_proj


def _layer_norm_params(cfg: ModelConfig) -> int:
    # Two block norms plus the norms on the compressed q and kv vectors.
    return 2 * cfg.hidden_size + cfg.mla.q_rank + cfg.mla.kv_rank


def count_parameters(cfg: ModelConfig) -> ParameterCount:
    h = cfg.hidden_size
    expert = cfg.expert_param_count
    n_moe = cfg.num_moe_layers
    n_dense = cfg.num_dense_layers

    attention = cfg.num_layers * _attention_params(cfg)
    dense_ffn = n_dense * 3 * h * cfg.dense_ffn_intermediate_size
    router = n_moe * h * cfg.num_routed_experts
    routed_experts = n_moe * cfg.num_routed_experts * expert
    shared_experts = n_moe * cfg.num_shared_experts * expert
    norms = cfg.num_layers * _layer_norm_params(cfg) + h  # final model norm
    embedding = cfg.vocab_size * h
    output_head = h * cfg.vocab_size

    # Each extra-token prediction block: one attention+expert layer plus a
    # 2h->h combine projection and its own pair of input norms.
    mtp_block = (
        _attention_params(cfg)
        + h * cfg.num_routed_experts
        + (cfg.num_routed_experts + cfg.num_shared_experts) * expert
        + 2 * h * h
        + _layer_norm_params(cfg)
        + 2 * h
    )
    mtp = cfg.num_mtp_layers * mtp_block

    per_component = {
        "embedding": embedding,
        "attention": attention,
        "dense_ffn": dense_ffn,
        "router": router,
        "routed_experts": routed_experts,
        "shared_experts": shared_experts,
        "norms": norms,
        "mtp": mtp,
        "output_head": output_head,
    }
    total = sum(per_component.values())

    activated_experts = n_moe * (cfg.top_k + cfg.num_shared_experts) * expert
    activated = (
        embedding
        + attention
        + dense_ffn
        + router
        + activated_experts
        + norms
        + output_head
    )
    activated_matmul = activated - embedding - norms
    return ParameterCount(total, activated, activated_matmul, per_component)


def _attention_flops_per_token(cfg: ModelConfig, seq_len: int) -> float:
    """Projection matmuls plus score/context terms against seq_len keys."""
    m = cfg.mla
    heads = cfg.num_attention_heads
    proj = 2.0 * _attention_params(cfg)
    scores = 2.0 * heads * (m.head_dim + m.rope_dim) * seq_len
    context = 2.0 * heads * m.head_dim * seq_len
    return proj + scores + context


def flops_per_token(cfg: ModelConfig, seq_len: int | None = None) -> FlopProfile:
    """Forward/backward training FLOPs per token of the main sequence.

    Attention score/context terms charge the full seq_len per query token;
    embedding lookups and norms are not charged. Extra-token prediction
    blocks run during training and are included, along with their extra
    pass through the shared output head.
    """
    t = cfg.seq_len if seq_len is None else seq_len
    h = cfg.hidden_size
    attn = _attention_flops_per_token(cfg, t)
    expert_ffn = 6.0 * h * cfg.expert_intermediate_size
    per_layer = {
        "dense": attn + 6.0 * h * cfg.dense_ffn_intermediate_size,
        "moe": attn
        + 2.0 * h * cfg.num_routed_experts
        + (cfg.top_k + cfg.num_shared_experts) * expert_ffn,
    }
    per_layer["mtp"] = per_layer["moe"] + 2.0 * (2 * h) * h + 2.0 * h * cfg.vocab_size
    per_layer["head"] = 2.0 * h * cfg.vocab_size

    forward = (
        cfg.num_dense_layers * per_layer["dense"]
        + cfg.num_moe_layers * per_layer["moe"]
        + cfg.num_mtp_layers * per_layer["mtp"]
        + per_layer["head"]
    )
    return FlopProfile(forward, 2.0 * forward, per_layer)


def depth_width_hidden(num_layers: int) -> float:
    """Hidden size suggested by the fitted depth-to-width scaling law."""
    if num_layers < 0:
        raise ValueError("num_layers must be non-negative")
    return math.exp(DEPTH_WIDTH_INTERCEPT + DEPTH_WIDTH_SLOPE * num_layers)


@dataclass(frozen=True)
class PruningRules:
    """Optional filters applied while enumerating a design space.

    shape_multiple prunes configs whose hidden or FFN sizes are not a
    multiple of the given value (1 disables). expert_count_power_of_two
    keeps only power-of-two routed expert counts. depth_width_band keeps
    configs whose hidden size is within the given relative band around
    depth_width_hidden(num_layers); None disables.
    """

    shape_multiple: int = bounded(">= 1", default=1)
    expert_count_power_of_two: bool = False
    depth_width_band: float | None = bounded(">= 0", default=None)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class DesignSpace:
    base: ModelConfig
    ranges: dict[str, list]  # ModelConfig field name -> candidate values
    pruning: PruningRules = field(default_factory=PruningRules)

    def __post_init__(self):
        check_fields(self)
        kinds = declared(ModelConfig)
        for name, values in self.ranges.items():
            if name not in kinds or name == "mla":
                raise ValueError(f"unknown ModelConfig field in ranges: {name!r}")
            require(f"ranges.{name}", values, list, UNBOUNDED)
            if not values:
                raise ValueError(f"empty candidate list for field {name!r}")
        # A candidate must have its field's kind; one outside the field's
        # bound is skipped when the space is enumerated.
        for name, values in self.ranges.items():
            for i, value in enumerate(values):
                require(f"ranges.{name}.{i}", value, kinds[name][0], UNBOUNDED)


def _passes_pruning(cfg: ModelConfig, rules: PruningRules) -> bool:
    if rules.shape_multiple > 1:
        shaped = (
            cfg.hidden_size,
            cfg.expert_intermediate_size,
            cfg.dense_ffn_intermediate_size,
        )
        if any(s % rules.shape_multiple for s in shaped):
            return False
    if rules.expert_count_power_of_two:
        n = cfg.num_routed_experts
        if n & (n - 1):
            return False
    if rules.depth_width_band is not None:
        target = depth_width_hidden(cfg.num_layers)
        if abs(cfg.hidden_size - target) > rules.depth_width_band * target:
            return False
    return True


def enumerate_design_space(space: DesignSpace) -> list[ModelConfig]:
    """Materialize the Cartesian product of the ranges, pruned and deduped.

    Field order is the sorted field name order, so the output order is
    deterministic and independently restartable. Combinations that violate
    ModelConfig invariants (e.g. top_k > num_routed_experts) are skipped
    like any other pruned candidate. Raises EmptySpaceError when nothing
    survives.
    """
    names = sorted(space.ranges)
    configs: list[ModelConfig] = []
    seen = set()
    for combo in itertools.product(*(space.ranges[n] for n in names)):
        try:
            cfg = replace(space.base, **dict(zip(names, combo)))
        except ValueError:
            continue
        if not _passes_pruning(cfg, space.pruning):
            continue
        if cfg in seen:
            continue
        seen.add(cfg)
        configs.append(cfg)
    if not configs:
        raise EmptySpaceError("all design space candidates were pruned")
    return configs


def model_id(cfg: ModelConfig) -> str:
    """Short stable identifier used in search rankings and reports."""
    return (
        f"L{cfg.num_layers}d{cfg.num_dense_layers}"
        f"-h{cfg.hidden_size}-a{cfg.num_attention_heads}"
        f"-E{cfg.num_routed_experts}x{cfg.expert_intermediate_size}"
        f"-K{cfg.top_k}s{cfg.num_shared_experts}"
        f"-mtp{cfg.num_mtp_layers}"
    )
