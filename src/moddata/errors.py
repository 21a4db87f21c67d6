"""Exception types shared across the package."""


class ModdataError(Exception):
    """Base class for all library errors."""


class DivisionByZero(ModdataError, ZeroDivisionError):
    """Inversion of zero in a cyclotomic field."""


class BadConductor(ModdataError, ValueError):
    """Conductor lift requested to a non-multiple of the current conductor."""


class NotAUnit(ModdataError, ValueError):
    """Galois exponent is not coprime to the relevant modulus."""


class BadModulus(ModdataError, ValueError):
    """Jacobi symbol requested for an even or nonpositive modulus."""


class NotRootOfUnity(ModdataError, ValueError):
    """Operation requires a root of unity."""


class InvalidDatum(ModdataError, ValueError):
    """Operation requires a datum that passes the defining axioms."""


class DuplicateLabel(ModdataError, ValueError):
    """Two labels of a datum are equal, as a product's labels can be."""


class DimensionMismatch(ModdataError, ValueError):
    """Operands have incompatible sizes."""


class NotIntegral(ModdataError, ValueError):
    """Operation requires an integral datum (positive integer dimensions)."""


class NoUniqueMatch(ModdataError, ValueError):
    """Row matching for the induced index permutation failed; the datum is
    corrupted or not integral."""


class NotGalois(ModdataError, ValueError):
    """Operation requires a Galois datum."""


class BadInversePair(ModdataError, ValueError):
    """Exponent pair is not inverse modulo the exponent."""


class EvenExponent(ModdataError, ValueError):
    """Sign analysis requires an odd exponent."""


class SignMismatch(ModdataError, ValueError):
    """Neither sign satisfies the expected relation between the Gaussian sum
    and its reciprocal; the input cannot be a valid datum."""


class InvalidExtension(ModdataError, ValueError):
    """Rank/charge pair violates its defining constraints."""


class ChargeNotRootOfUnity(ModdataError, ValueError):
    """Candidate cube of the central charge is not a root of unity."""


class ChargeOrderTooLarge(ModdataError, ValueError):
    """Central charge is not a 24th root of unity, so no additive charge."""


class EvenOrder(ModdataError, ValueError):
    """Cyclic datum constructor requires odd group order."""


class BadLevel(ModdataError, ValueError):
    """SU(2)_k constructor requires a positive level."""


class TooLarge(ModdataError, ValueError):
    """A resource bound (group order or conductor) was exceeded."""


class NonInvertibleInput(ModdataError, ValueError):
    """Matrix input to a congruence check is singular."""


class SchemaError(ModdataError, ValueError):
    """Malformed JSON input; carries the JSON path of the offending node."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
