"""Desk-scale lab for sparse-subnetwork (lottery ticket) search.

The library couples a tiny reverse-mode autodiff engine with learned-gate
sparsification: deterministic sigmoid gates annealed toward a hard step,
magnitude pruning with weight rewinding, stochastic straight-through
masks, and the harness to evaluate, select, and sweep the resulting
subnetworks reproducibly.
"""

from .data import (DataConfig, Dataset, TeacherInfo, gen_sparse_teacher,
                   gen_two_moons, load_idx)
from .harness import (EvalRow, EvaluationReport, ExperimentPlan,
                      cost_accounting, dense_baseline, finetune_ticket,
                      masked_accuracy, per_layer_sparsity, random_mask_like,
                      retrain_ticket, run_point, select_best_performing,
                      select_sparsest_matching, sweep)
from .masking import (GATE_HARD, GATE_NONE, GATE_SOFT, GATE_STOCHASTIC,
                      MaskedParameterGroup, TemperatureSchedule, gate_penalty,
                      hard_mask, remaining_fraction, reset_mask, soft_gate,
                      stochastic_gate)
from .models import Model, ModelConfig, build_mlp, build_small_conv
from .optim import SGD, Adam, CompositeOptimizer, OptimizerConfig
from .persist import (RunRecord, load_checkpoint, load_mask_artifact,
                      read_records, save_checkpoint, save_mask_artifact,
                      write_records)
from .search import (RewindStore, RoundConfig, TicketResult,
                     freeze_mask_and_finetune, run_cs, run_imp, run_iss,
                     run_sequential_cs, run_supermask)
from .seeding import seeded_rng
from .tensor import (GradientError, NonFiniteError, ShapeError, Tensor,
                     backward, no_grad, reset_tape, set_default_dtype)
from .training import evaluate, train

__version__ = "0.1.0"
