import pytest

from rfiqkd import ChannelParams, ProtocolConfig, SecurityParams, intensity_triple


def make_config(**overrides) -> ProtocolConfig:
    """Baseline protocol settings used throughout the suite."""
    defaults = dict(
        intensities=intensity_triple(0.55, 0.28, 0.0, 0.54, 0.36, 0.10),
        p_z_alice=0.77,
        p_z_bob=0.5,
        n_total=3_000_000_000_000,
        m_groups=1,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


@pytest.fixture
def cfg() -> ProtocolConfig:
    return make_config()


@pytest.fixture
def ch() -> ChannelParams:
    return ChannelParams()


@pytest.fixture
def sec() -> SecurityParams:
    return SecurityParams()
