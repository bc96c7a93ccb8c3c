"""Order-robust information extraction on visually-rich documents.

Instead of tagging a token sequence (which presumes a correct reading
order), entities, links, and reading orders are all predicted as edges in
an n x n grid over token pairs and decoded as paths, so a shuffled input
cannot corrupt the targets.
"""

from .core import (
    BoundingBox,
    Corpus,
    Document,
    Entity,
    InputOrder,
    Segment,
    Word,
    load_corpus,
    load_document,
    ocr_order,
    save_corpus,
    save_document,
    validate_document,
)
from .datagen import GenConfig, gen_corpus, shuffle_order
from .decode import (
    DecodeConfig,
    DecodedEntity,
    Prediction,
    decode_document,
    el_decode,
    ner_decode,
    reorder,
    rop_decode,
)
from .labels import (
    bio_decode,
    bio_encode,
    bio_tag_names,
    el_grid,
    ner_grids,
    rop_grid,
)
from .metrics import (
    DatasetStats,
    EvalReport,
    ard,
    continuous_entity_rate,
    dataset_stats,
    entity_f1,
    link_f1,
    page_bleu,
    sum_reports,
    word_f1,
)
from .scorer import (
    EncoderConfig,
    ModelParams,
    encode,
    global_pointer_scores,
    grid_loss,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_document,
    task_loss,
    task_loss_and_grad,
)
from .train import Hyper, TrainLog, train

__version__ = "0.1.0"
