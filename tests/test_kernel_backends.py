"""The rewriting kernel reports which implementation it is."""

from qmink.kernel import backend_name


def test_selected_backend_reported():
    assert backend_name() == "python"
