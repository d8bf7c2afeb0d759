"""Exception hierarchy shared by all modules."""


class QmarkovError(Exception):
    """Base class for all library errors."""


class NotSelfAdjoint(QmarkovError):
    pass


class NotPSD(QmarkovError):
    pass


class ShapeMismatch(QmarkovError):
    pass


class Singular(QmarkovError):
    pass


class PullbackNotPSD(QmarkovError):
    pass


class SupportNotFull(QmarkovError):
    pass


class NotCommutative(QmarkovError):
    pass


class NotAeDeterministic(QmarkovError):
    pass


class PreconditionsUnmet(QmarkovError):
    pass


class UnknownFixture(QmarkovError):
    pass
