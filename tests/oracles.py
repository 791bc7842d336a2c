"""Reference formulas the tests check the library against."""
import numpy as np


def mimo_capacity_det(h, rho_linear: float, m_t: int | None = None) -> float:
    """Capacity log2 det(I + rho/M_t H H^H) in bit/s/Hz of one (rx, tx)
    channel: the determinant reference for the experiment's eigenvalue
    path (``capacity.gram_eigs`` and ``capacity.capacity_from_eigs``)."""
    h = np.asarray(h, dtype=complex)
    u, s = h.shape
    if m_t is None:
        m_t = s
    gram = h @ h.conj().T if u <= s else h.conj().T @ h
    sign, logdet = np.linalg.slogdet(np.eye(gram.shape[0]) + rho_linear * gram / m_t)
    return float(logdet / np.log(2.0))
