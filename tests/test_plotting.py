import numpy as np
import pytest

from thzgbsm.plotting import line_plot


def _series():
    x = np.arange(0.0, 35.1, 5.0)
    return [("measured", x, 0.5 * x + 1.0), ("3gpp", x, 0.7 * x + 1.5)]


def test_line_plot_returns_svg_text():
    svg = line_plot(_series(), title="capacity", xlabel="SNR [dB]",
                    ylabel="bps/Hz")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "measured" in svg and "3gpp" in svg
    assert "polyline" in svg


def test_line_plot_is_deterministic():
    assert line_plot(_series()) == line_plot(_series())


def test_line_plot_rejects_empty_and_mismatched_series():
    with pytest.raises(ValueError):
        line_plot([])
    with pytest.raises(ValueError):
        line_plot([("a", np.array([1.0, 2.0]), np.array([-1.0]))])
