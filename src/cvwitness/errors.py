"""Exception hierarchy shared by all cvwitness modules."""


class CVWitnessError(Exception):
    """Base class for all cvwitness errors."""


class ValidationError(CVWitnessError):
    """A covariance matrix or parameter set failed validation."""


class OddDimension(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class NotPhysical(ValidationError):
    """gamma + i*sigma has an eigenvalue below tolerance.

    Carries the most negative eigenvalue in ``min_eigenvalue``.
    """

    def __init__(self, min_eigenvalue):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"gamma + i*sigma not positive semidefinite "
            f"(min eigenvalue {self.min_eigenvalue:.3e})"
        )


class DegenerateBlock(CVWitnessError):
    pass


class SingularSum(CVWitnessError):
    pass


class SingularMatrix(CVWitnessError):
    pass


class OptimFailure(CVWitnessError):
    pass


class ImpureLocalCM(CVWitnessError):
    pass


class StationarityViolated(CVWitnessError):
    pass


class UnsupportedOrder(CVWitnessError):
    pass


class NegativeC(CVWitnessError):
    pass


class SchemaError(CVWitnessError):
    """Input document does not match the expected JSON schema.

    ``location`` is a JSON-pointer-like path to the offending element.
    """

    def __init__(self, message, location=""):
        self.location = location
        super().__init__(f"{message} (at '{location}')" if location else message)
