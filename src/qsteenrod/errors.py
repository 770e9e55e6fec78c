"""Exception types and the read-only record base shared across the package."""


class QSteenrodError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInverse(QSteenrodError):
    """Attempted to invert 0 in F_p."""


class NegativeValuation(QSteenrodError):
    """A factorial ratio has more factors of p downstairs than upstairs."""


class MixedContext(QSteenrodError):
    """Operands live over different primes or different q-truncations."""


class NotDivisor(QSteenrodError):
    """A degree-2 divisor class was required."""


class MissingSteenrodData(QSteenrodError):
    """No classical Steenrod entry for the requested (prime, class)."""


class InconsistentSeed(QSteenrodError):
    """The covariant-constancy recurrence contradicts a seeded slot."""


class NegativePowerResidue(QSteenrodError):
    """A nonzero entry landed on a slot whose forced t-exponent is negative."""


class NonReducible(QSteenrodError):
    """A retained rational coefficient has p in its denominator."""


class UnknownManifold(QSteenrodError):
    """Unknown built-in manifold name."""


class NotGenerated(QSteenrodError):
    """Expression uses a non-divisor where the generator strategy needs one."""


class CapExceeded(QSteenrodError):
    """Requested cell degree exceeds the finite degree cap."""


class ManifoldFormatError(QSteenrodError):
    """A manifold or result file failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class Record:
    """A read-only record, the package's plain stand-in for a frozen dataclass.

    A subclass names its fields in order in _fields, and the values of the last
    ones in _defaults.  It is built from positional or keyword arguments and
    keeps them in its instance __dict__.  It equals only a record of its own
    class with equal fields, hashes as the tuple of its fields, shows as
    Name(field=value, ...) and refuses assignment and deletion.
    """

    _fields, _defaults = (), ()

    def __init_subclass__(cls):
        # a record with no constructor of its own or inherited gets one compiled
        # from its field names, as namedtuple's and dataclasses' are: one plain call
        if cls.__init__ is object.__init__:
            scope = {}
            exec("def __init__(self, %s):\n    vars(self).update(%s)" % (
                ", ".join(cls._fields), ", ".join(map("{0}={0}".format, cls._fields))), scope)
            init = cls.__init__ = scope["__init__"]
            init.__defaults__, init.__qualname__ = cls._defaults, cls.__qualname__ + ".__init__"

    def _values(self):
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("%s=%r".__mod__, zip(self._fields, self._values())))
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("%s is read-only: cannot change %r" % (type(self).__name__, name))

    def __delattr__(self, name):
        self.__setattr__(name, None)
