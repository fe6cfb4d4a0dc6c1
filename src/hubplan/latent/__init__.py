from .oracle import ALL_FIELDS, MEMORYLESS_FIELDS, OracleEncoder, held_code
from .model import LearnedEncoder, LowLevelModel
from .training import LowTrainConfig, latent_prediction_loss, train_low_level
