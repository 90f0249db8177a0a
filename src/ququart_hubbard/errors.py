"""Exception types shared across the toolkit."""


class QuquartError(Exception):
    """Base class for all toolkit errors."""


class InvalidSubspace(QuquartError):
    """Two-level subspace indices are out of range or not ordered j < k."""


class SiteOutOfRange(QuquartError):
    """A site index does not exist in the register or lattice."""


class InvalidCircuit(QuquartError):
    """A circuit field or circuit document entry is malformed."""


class StateSizeMismatch(QuquartError, ValueError):
    """A state's amplitude count is not 4^L for the register it is run on."""


class SectorCoupling(QuquartError):
    """A Hamiltonian has a nonzero entry between two (N_up, N_dn) sectors."""


class DimensionTooLarge(QuquartError):
    """Dense construction requested above the supported Hilbert dimension."""


class UnsupportedLattice(QuquartError):
    """Lattice is outside the supported chain / two-row ladder set."""


class SynthesisResidual(QuquartError):
    """Transpiled circuit failed to reproduce its target evolution."""


class ConfigInvalid(QuquartError):
    """Run configuration failed validation; message names the field."""


class EmptySeries(QuquartError):
    """A time series of fewer than two samples was passed to a transform."""
