from .oracle import ALL_FIELDS, MEMORYLESS_FIELDS, OracleEncoder, held_code
from .model import LearnedEncoder, LowLevelModel
from .training import train_low_level
