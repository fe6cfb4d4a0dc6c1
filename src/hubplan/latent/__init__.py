from .oracle import ALL_FIELDS, MEMORYLESS_FIELDS, OracleEncoder, held_code
from .model import LearnedEncoder, LowLevelModel
from .training import latent_prediction_loss, train_low_level
