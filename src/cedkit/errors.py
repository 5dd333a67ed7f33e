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


class InvalidTransformError(CedkitError, ValueError):
    """Rotation is not orthonormal with determinant +1 within tolerance."""


class NoColorError(CedkitError):
    """Operation needs color but the cloud carries none."""


class InvalidParamsError(CedkitError, ValueError):
    """A parameter, scene specification or cloud shape is outside its documented range."""


class MisalignedFieldsError(CedkitError, ValueError):
    """Saliency fields passed together do not share the same point count."""
