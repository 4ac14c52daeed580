"""Shared utilities (sliding windows, reproducible configuration helpers)."""

from .checks import check_count
from .env import env_positive_int
from .windows import conv_output_size, extract_patches, pad_images, patches_to_map

__all__ = [
    "check_count", "conv_output_size", "env_positive_int", "extract_patches", "pad_images",
    "patches_to_map",
]
