"""flowbench: feature extraction x ML classifier benchmarking for flow NIDS data."""

from .schema import (
    BUILTIN_SCHEMAS, DatasetSchema, get_schema, schema_from_file, schema_to_file,
)
from .ingest import (
    EncoderMap, FeatureMatrix, RawTable, clean_values, deduplicate,
    drop_identifiers, dump_feature_matrix, encode_categoricals, load_csv,
    load_feature_matrix,
)
from .preprocess import (
    ClassWeights, FoldPlan, ScalerModel, apply_scaler, class_weights, fit_scaler,
    stratified_kfold, stratified_split, stratified_subsample,
)
from .synth import SynthSpec, SynthResult, schema_for, synth_generate
from .nn import LayerSpec, Network, TrainConfig, bce_loss, build_network, train
from .extract import (
    AeModel, LdaModel, PcaModel, VarianceReport, ae_encode, ae_fit, ae_reconstruct,
    lda_fit, lda_transform, pca_fit, pca_inverse, pca_transform, variance_report,
)
from .classifiers import (
    ClassifierSpec, FittedClassifier, dt_fit, dt_score, fit_classifier, fit_predict,
    gnb_fit, gnb_score, lr_fit, lr_score,
)
from .evaluate import (
    ConfusionCounts, EvalReport, RocCurve, aggregate_folds, confusion,
    evaluate, metrics, per_attack_dr, roc_auc,
)
from .runner import ExperimentConfig, ResultRecord, best_per_model, run
from .persist import load_model, save_model
from .errors import DataFormatError, FlowbenchError, InputError, SchemaError, TrainingDiverged

__version__ = "0.1.0"
