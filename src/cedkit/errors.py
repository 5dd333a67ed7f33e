"""Exception types raised across the toolkit."""


class CedkitError(Exception):
    """Base class for all toolkit errors."""


class CloudFormatError(CedkitError):
    """A point-cloud file violates the expected layout."""


class MalformedHeaderError(CloudFormatError):
    """Element or property declarations in a file header are unreadable."""


class TruncatedBodyError(CloudFormatError):
    """File body carries fewer records than the header declares."""


class UnsupportedPropertyError(CloudFormatError):
    """A declared property uses a type or width this toolkit does not handle."""


class NonFiniteValueError(CloudFormatError):
    """Coordinates or colors hold NaN or infinity."""


class EmptyCloudError(CedkitError):
    """Operation requires a non-empty cloud."""


class NonPositiveLeafError(CedkitError, ValueError):
    """Voxel leaf size must be strictly positive."""


class InvalidTransformError(CedkitError, ValueError):
    """Rotation is not orthonormal with determinant +1 within tolerance."""


class NegativeSigmaError(CedkitError, ValueError):
    """Noise standard deviation must be non-negative."""


class NonPositiveRadiusError(CedkitError, ValueError):
    """Search radius must be strictly positive."""


class IndexOutOfRangeError(CedkitError, IndexError):
    """Query index does not address a point of the source cloud."""


class NoColorError(CedkitError):
    """Operation needs color but the cloud carries none."""


class InvalidParamsError(CedkitError, ValueError):
    """Detector or evaluation parameters violate their documented ranges."""


class MisalignedFieldsError(CedkitError, ValueError):
    """Saliency fields passed together do not share the same point count."""


class CountOutOfRangeError(InvalidParamsError):
    """Requested sample count is outside [1, cloud size]."""


class InvalidSpecError(CedkitError, ValueError):
    """Scene specification violates its documented ranges."""
