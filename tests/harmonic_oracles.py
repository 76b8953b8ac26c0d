"""Inverse transform, the oracle for the round trip of `profile_dft`."""

import numpy as np


def inverse_transform(hat: np.ndarray) -> np.ndarray:
    """Reconstruct f from its complex transform (double precision)."""
    return np.fft.ifft(hat)
