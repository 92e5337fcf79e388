"""Speculative decoding for multimodal targets with text-only drafts.

The package pairs an image-conditioned target model with a cheaper draft
that sees only the text prefix: the draft proposes a block of tokens, the
target scores the whole block in one call, and a lossless accept/reject
rule keeps the output distribution identical to plain autoregressive
decoding.  A small benchmark harness measures block efficiency and
memory-bound speed-up on character-level n-gram stand-ins.
"""

from mmspec.core import (
    AllZeroError,
    MultimodalPrompt,
    ProbDist,
    RngState,
    TokenId,
    Vocab,
    argmax,
    normalize,
    sample,
)
from mmspec.engine import (
    BlockRecord,
    BlockTrace,
    DraftZeroProbError,
    ShapeMismatchError,
    SpdConfig,
    autoregressive_generate,
    draft_block,
    residual_dist,
    spd_generate,
    verify_greedy,
    verify_stochastic,
)
from mmspec.harness import (
    CharTokenizer,
    ExperimentConfig,
    MissingFieldError,
    PromptRecord,
    UnknownPromptError,
    demo_corpus_path,
    demo_dataset_path,
    load_dataset,
    qualitative_trace,
    render_template,
    run_experiment,
    train_models,
)
from mmspec.metrics import (
    CostModel,
    DEFAULT_DRAFT_COST,
    GammaAggregate,
    PromptRun,
    RunReport,
    aggregate,
    block_efficiency,
    mbsu,
    mbsu_c_scaled,
    token_rate_ratio,
)
from mmspec.models import (
    EmptyCorpusError,
    ModelFormatError,
    MultimodalTargetLm,
    NgramLm,
    TextOnlyDraftLm,
    TrainingError,
    load_ngram,
    save_ngram,
    train_ngram,
)

__version__ = "0.1.0"
