import pytest

from genmaps import quaternionic_hopf_lifts
from morphlift.catalog import lookup
from morphlift.lift import complete_lift_real
from morphlift.mapfile import parse_map
from morphlift.maps import complexify, compose, real_identification


@pytest.fixture(scope="session")
def quaternion():
    return parse_map(lookup("ex1.4.iii-quaternion").definition)


@pytest.fixture(scope="session")
def quaternion_real(quaternion):
    return real_identification(quaternion)


@pytest.fixture(scope="session")
def q_r_lift(quaternion_real):
    """The real complete lift of the quaternion product, R^16 -> R^4."""
    return complete_lift_real(quaternion_real)


@pytest.fixture(scope="session")
def q_r_complex(q_r_lift):
    """The same lift viewed as a complex map C^8 -> C^2."""
    return complexify(q_r_lift)


@pytest.fixture(scope="session")
def phi_r16(q_r_complex):
    """zw composed after the complex form of the lift: C^8 -> C."""
    zw = parse_map("map f: C^2 -> C^1 { f1 = z1*z2; }")
    return compose(zw, q_r_complex)


@pytest.fixture(scope="session")
def phi_r16_real(phi_r16):
    return real_identification(phi_r16)


@pytest.fixture(scope="session")
def stereographic():
    return parse_map(lookup("ex1.4.iv-hyperbolic-stereographic").definition)


@pytest.fixture(scope="session")
def hopf_lifts():
    """The quaternionic Hopf map R^8 -> R^5 and its complete lifts, keyed by
    domain dimension: R^8, R^16, R^32 and R^64."""
    return quaternionic_hopf_lifts()


@pytest.fixture(scope="session")
def flipped_hopf_lifts():
    """The same with one sign of the Hopf map flipped."""
    return quaternionic_hopf_lifts(flip=True)
