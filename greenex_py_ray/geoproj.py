"""Pure-numpy CRS projection kernels (pyproj replacement).

The reference reprojects any geographic input to a projected CRS before
metric math (M2, ``accessibility.py:40-50``; default EPSG:3395 at
``availability.py:66-70``) and converts bboxes back to WGS84 for remote
catalog queries (M8, ``availability.py:76-77``).  The sandbox has no
pyproj, so the two projections the reference actually uses are
implemented from the public closed forms over float64 arrays:

* **EPSG:3395** (World Mercator, WGS84 ellipsoid) — Snyder, *Map
  Projections: A Working Manual* (USGS PP 1395), eqs. 7-6..7-10.
* **UTM / Transverse Mercator** — the Krüger n-series (6th order) as in
  Karney 2011, *Transverse Mercator with an accuracy of a few
  nanometers* (public algorithm; also OSGB/Redfearn lineage).

Everything is vectorized; a "CRS" here is one of the string tags
``"EPSG:4326"`` (geographic degrees), ``"EPSG:3395"``, or
``"UTM:<zone><N|S>"`` (e.g. ``"UTM:31N"``).
"""

from __future__ import annotations

import numpy as np

# WGS84 ellipsoid
_A = 6378137.0
_F = 1.0 / 298.257223563
_E2 = _F * (2.0 - _F)
_E = np.sqrt(_E2)
# third flattening and Krüger series constants (Karney 2011, eq. 12/35)
_N = _F / (2.0 - _F)
_N2 = _N * _N
# rectifying radius A1 = a/(1+n) (1 + n²/4 + n⁴/64 + ...)
_A1 = _A / (1.0 + _N) * (1.0 + _N2 / 4.0 + _N2 * _N2 / 64.0)
# forward coefficients alpha_j (j=1..6)
_ALPHA = np.array([
    _N / 2.0 - 2.0 / 3.0 * _N2 + 5.0 / 16.0 * _N**3 + 41.0 / 180.0 * _N**4
    - 127.0 / 288.0 * _N**5 + 7891.0 / 37800.0 * _N**6,
    13.0 / 48.0 * _N2 - 3.0 / 5.0 * _N**3 + 557.0 / 1440.0 * _N**4
    + 281.0 / 630.0 * _N**5 - 1983433.0 / 1935360.0 * _N**6,
    61.0 / 240.0 * _N**3 - 103.0 / 140.0 * _N**4 + 15061.0 / 26880.0 * _N**5
    + 167603.0 / 181440.0 * _N**6,
    49561.0 / 161280.0 * _N**4 - 179.0 / 168.0 * _N**5
    + 6601661.0 / 7257600.0 * _N**6,
    34729.0 / 80640.0 * _N**5 - 3418889.0 / 1995840.0 * _N**6,
    212378941.0 / 319334400.0 * _N**6,
])
# inverse coefficients beta_j
_BETA = np.array([
    _N / 2.0 - 2.0 / 3.0 * _N2 + 37.0 / 96.0 * _N**3 - 1.0 / 360.0 * _N**4
    - 81.0 / 512.0 * _N**5 + 96199.0 / 604800.0 * _N**6,
    1.0 / 48.0 * _N2 + 1.0 / 15.0 * _N**3 - 437.0 / 1440.0 * _N**4
    + 46.0 / 105.0 * _N**5 - 1118711.0 / 3870720.0 * _N**6,
    17.0 / 480.0 * _N**3 - 37.0 / 840.0 * _N**4 - 209.0 / 4480.0 * _N**5
    + 5569.0 / 90720.0 * _N**6,
    4397.0 / 161280.0 * _N**4 - 11.0 / 504.0 * _N**5
    - 830251.0 / 7257600.0 * _N**6,
    4583.0 / 161280.0 * _N**5 - 108847.0 / 3991680.0 * _N**6,
    20648693.0 / 638668800.0 * _N**6,
])

_UTM_K0 = 0.9996
_UTM_FE = 500000.0
_UTM_FN_S = 10000000.0


# ---------------------------------------------------------------------------
# EPSG:3395 — World Mercator (ellipsoidal)
# ---------------------------------------------------------------------------


def mercator_forward(lon_deg, lat_deg):
    """(lon, lat) degrees → EPSG:3395 (x, y) meters."""
    lon = np.deg2rad(np.asarray(lon_deg, np.float64))
    lat = np.deg2rad(np.asarray(lat_deg, np.float64))
    x = _A * lon
    s = np.sin(lat)
    y = _A * (np.arctanh(s) - _E * np.arctanh(_E * s))
    return x, y


def mercator_inverse(x, y):
    """EPSG:3395 (x, y) meters → (lon, lat) degrees (Newton on the
    isometric latitude; converges quadratically, 6 iters ≈ machine eps)."""
    x = np.asarray(x, np.float64)
    y = np.asarray(y, np.float64)
    lon = x / _A
    psi = y / _A  # isometric latitude
    # initial guess: spherical
    lat = 2.0 * np.arctan(np.exp(psi)) - np.pi / 2.0
    for _ in range(6):
        s = np.sin(lat)
        f = np.arctanh(s) - _E * np.arctanh(_E * s) - psi
        df = 1.0 / (1.0 - s * s) * np.cos(lat) - _E * _E * np.cos(lat) / (
            1.0 - _E2 * s * s)
        lat = lat - f / df
    return np.rad2deg(lon), np.rad2deg(lat)


# ---------------------------------------------------------------------------
# UTM — transverse Mercator, Krüger series
# ---------------------------------------------------------------------------


def _tm_forward(lon, lat, lon0):
    """Transverse Mercator core: radians in → unscaled (ξ·A1, η·A1)."""
    s = np.sin(lat)
    # conformal latitude (Karney eq. 7-9)
    t = np.sinh(np.arctanh(s) - _E * np.arctanh(_E * s))
    xi_p = np.arctan2(t, np.cos(lon - lon0))
    eta_p = np.arcsinh(np.sin(lon - lon0) / np.hypot(t, np.cos(lon - lon0)))
    xi = xi_p.copy()
    eta = eta_p.copy()
    for j in range(6):
        k = 2.0 * (j + 1)
        xi = xi + _ALPHA[j] * np.sin(k * xi_p) * np.cosh(k * eta_p)
        eta = eta + _ALPHA[j] * np.cos(k * xi_p) * np.sinh(k * eta_p)
    return _A1 * eta, _A1 * xi  # (easting-ish, northing-ish)


def _tm_inverse(x, y, lon0):
    xi = y / _A1
    eta = x / _A1
    xi_p = xi.copy()
    eta_p = eta.copy()
    for j in range(6):
        k = 2.0 * (j + 1)
        xi_p = xi_p - _BETA[j] * np.sin(k * xi) * np.cosh(k * eta)
        eta_p = eta_p - _BETA[j] * np.cos(k * xi) * np.sinh(k * eta)
    t = np.sinh(eta_p)
    lon = lon0 + np.arctan2(t, np.cos(xi_p))
    chi = np.arcsin(np.sin(xi_p) / np.cosh(eta_p))  # conformal latitude
    # conformal → geographic latitude: Newton on the isometric latitude
    # (both latitudes share it: psi(lat) = arctanh(sin chi))
    psi = np.arctanh(np.sin(chi))
    lat = chi.copy()
    for _ in range(6):
        s = np.sin(lat)
        f = np.arctanh(s) - _E * np.arctanh(_E * s) - psi
        df = np.cos(lat) / (1.0 - s * s) - _E2 * np.cos(lat) / (1.0 - _E2 * s * s)
        lat = lat - f / df
    return lon, lat


def utm_forward(lon_deg, lat_deg, zone: int, south: bool = False):
    """(lon, lat) degrees → UTM (easting, northing) meters for ``zone``."""
    lon = np.deg2rad(np.asarray(lon_deg, np.float64))
    lat = np.deg2rad(np.asarray(lat_deg, np.float64))
    lon0 = np.deg2rad(zone * 6.0 - 183.0)
    ex, ny = _tm_forward(lon, lat, lon0)
    e = _UTM_K0 * ex + _UTM_FE
    n = _UTM_K0 * ny + (_UTM_FN_S if south else 0.0)
    return e, n


def utm_inverse(easting, northing, zone: int, south: bool = False):
    x = (np.asarray(easting, np.float64) - _UTM_FE) / _UTM_K0
    y = (np.asarray(northing, np.float64)
         - (_UTM_FN_S if south else 0.0)) / _UTM_K0
    lon0 = np.deg2rad(zone * 6.0 - 183.0)
    lon, lat = _tm_inverse(x, y, lon0)
    return np.rad2deg(lon), np.rad2deg(lat)


# ---------------------------------------------------------------------------
# General ellipsoids, datum shifts and national grids (round 3)
#
# The reference's TestData lives in EPSG:27700 (OSGB, Airy 1830 +
# transverse Mercator), EPSG:28992 (RD New, Bessel 1841 + oblique
# "double" stereographic, EPSG method 9809) and EPSG:3857 (spherical
# web Mercator).  All formulas are the public EPSG Guidance Note 7-2 /
# Snyder closed forms; datum shifts are the published position-vector
# Helmert parameter sets (the same towgs84 sets pyproj applies when no
# grid files are installed).
# ---------------------------------------------------------------------------

_ARCSEC = np.pi / (180.0 * 3600.0)


class Ellipsoid:
    """Ellipsoid + Krüger n-series constants (Karney 2011, as above)."""

    def __init__(self, a: float, invf: float):
        self.a = a
        self.f = 1.0 / invf
        self.e2 = self.f * (2.0 - self.f)
        self.e = np.sqrt(self.e2)
        n = self.f / (2.0 - self.f)
        self.n = n
        n2 = n * n
        self.A1 = a / (1.0 + n) * (1.0 + n2 / 4.0 + n2 * n2 / 64.0)
        self.alpha = np.array([
            n / 2.0 - 2.0 / 3.0 * n2 + 5.0 / 16.0 * n**3 + 41.0 / 180.0 * n**4
            - 127.0 / 288.0 * n**5 + 7891.0 / 37800.0 * n**6,
            13.0 / 48.0 * n2 - 3.0 / 5.0 * n**3 + 557.0 / 1440.0 * n**4
            + 281.0 / 630.0 * n**5 - 1983433.0 / 1935360.0 * n**6,
            61.0 / 240.0 * n**3 - 103.0 / 140.0 * n**4 + 15061.0 / 26880.0 * n**5
            + 167603.0 / 181440.0 * n**6,
            49561.0 / 161280.0 * n**4 - 179.0 / 168.0 * n**5
            + 6601661.0 / 7257600.0 * n**6,
            34729.0 / 80640.0 * n**5 - 3418889.0 / 1995840.0 * n**6,
            212378941.0 / 319334400.0 * n**6,
        ])
        self.beta = np.array([
            n / 2.0 - 2.0 / 3.0 * n2 + 37.0 / 96.0 * n**3 - 1.0 / 360.0 * n**4
            - 81.0 / 512.0 * n**5 + 96199.0 / 604800.0 * n**6,
            1.0 / 48.0 * n2 + 1.0 / 15.0 * n**3 - 437.0 / 1440.0 * n**4
            + 46.0 / 105.0 * n**5 - 1118711.0 / 3870720.0 * n**6,
            17.0 / 480.0 * n**3 - 37.0 / 840.0 * n**4 - 209.0 / 4480.0 * n**5
            + 5569.0 / 90720.0 * n**6,
            4397.0 / 161280.0 * n**4 - 11.0 / 504.0 * n**5
            - 830251.0 / 7257600.0 * n**6,
            4583.0 / 161280.0 * n**5 - 108847.0 / 3991680.0 * n**6,
            20648693.0 / 638668800.0 * n**6,
        ])


WGS84 = Ellipsoid(6378137.0, 298.257223563)
AIRY1830 = Ellipsoid(6377563.396, 299.3249646)
BESSEL1841 = Ellipsoid(6377397.155, 299.1528128)

#: position-vector Helmert parameters LOCAL DATUM → WGS84
#: (tx, ty, tz meters; rx, ry, rz arc-seconds; ds ppm)
HELMERT_TO_WGS84 = {
    "OSGB36": (446.448, -125.157, 542.060, 0.1502, 0.2470, 0.8421, -20.4894),
    "AMERSFOORT": (565.417, 50.3319, 465.552, -0.398957, 0.343988, -1.87740,
                   4.0725),
}


def _geodetic_to_ecef(lon, lat, ell: Ellipsoid):
    s = np.sin(lat)
    c = np.cos(lat)
    nu = ell.a / np.sqrt(1.0 - ell.e2 * s * s)
    return nu * c * np.cos(lon), nu * c * np.sin(lon), nu * (1.0 - ell.e2) * s


def _ecef_to_geodetic(X, Y, Z, ell: Ellipsoid):
    lon = np.arctan2(Y, X)
    p = np.hypot(X, Y)
    lat = np.arctan2(Z, p * (1.0 - ell.e2))
    for _ in range(8):
        s = np.sin(lat)
        nu = ell.a / np.sqrt(1.0 - ell.e2 * s * s)
        lat = np.arctan2(Z + ell.e2 * nu * s, p)
    return lon, lat


def _helmert(X, Y, Z, params, inverse: bool = False):
    tx, ty, tz, rx, ry, rz, ds = params
    rx *= _ARCSEC
    ry *= _ARCSEC
    rz *= _ARCSEC
    m = 1.0 + ds * 1e-6
    M = np.array([[1.0, -rz, ry], [rz, 1.0, -rx], [-ry, rx, 1.0]]) * m
    P = np.vstack([np.atleast_1d(X), np.atleast_1d(Y), np.atleast_1d(Z)])
    if inverse:
        out = np.linalg.solve(M, P - np.array([[tx], [ty], [tz]]))
    else:
        out = M @ P + np.array([[tx], [ty], [tz]])
    return out[0], out[1], out[2]


def _datum_to_wgs84(lon, lat, ell: Ellipsoid, datum: str | None):
    if datum is None:
        return lon, lat
    X, Y, Z = _geodetic_to_ecef(lon, lat, ell)
    X, Y, Z = _helmert(X, Y, Z, HELMERT_TO_WGS84[datum])
    return _ecef_to_geodetic(X, Y, Z, WGS84)


def _datum_from_wgs84(lon, lat, ell: Ellipsoid, datum: str | None):
    if datum is None:
        return lon, lat
    X, Y, Z = _geodetic_to_ecef(lon, lat, WGS84)
    X, Y, Z = _helmert(X, Y, Z, HELMERT_TO_WGS84[datum], inverse=True)
    return _ecef_to_geodetic(X, Y, Z, ell)


def _tm_forward_ell(lon, lat, ell: Ellipsoid, lon0):
    s = np.sin(lat)
    t = np.sinh(np.arctanh(s) - ell.e * np.arctanh(ell.e * s))
    xi_p = np.arctan2(t, np.cos(lon - lon0))
    eta_p = np.arcsinh(np.sin(lon - lon0) / np.hypot(t, np.cos(lon - lon0)))
    xi = xi_p.copy()
    eta = eta_p.copy()
    for j in range(6):
        k = 2.0 * (j + 1)
        xi = xi + ell.alpha[j] * np.sin(k * xi_p) * np.cosh(k * eta_p)
        eta = eta + ell.alpha[j] * np.cos(k * xi_p) * np.sinh(k * eta_p)
    return ell.A1 * eta, ell.A1 * xi


def _tm_inverse_ell(x, y, ell: Ellipsoid, lon0):
    xi = y / ell.A1
    eta = x / ell.A1
    xi_p = xi.copy()
    eta_p = eta.copy()
    for j in range(6):
        k = 2.0 * (j + 1)
        xi_p = xi_p - ell.beta[j] * np.sin(k * xi) * np.cosh(k * eta)
        eta_p = eta_p - ell.beta[j] * np.cos(k * xi) * np.sinh(k * eta)
    t = np.sinh(eta_p)
    lon = lon0 + np.arctan2(t, np.cos(xi_p))
    chi = np.arcsin(np.sin(xi_p) / np.cosh(eta_p))
    psi = np.arctanh(np.sin(chi))
    lat = chi.copy()
    for _ in range(8):
        s = np.sin(lat)
        f = np.arctanh(s) - ell.e * np.arctanh(ell.e * s) - psi
        df = np.cos(lat) / (1.0 - s * s) \
            - ell.e2 * np.cos(lat) / (1.0 - ell.e2 * s * s)
        lat = lat - f / df
    return lon, lat


class TMGrid:
    """Parameterized transverse-Mercator grid (e.g. EPSG:27700)."""

    def __init__(self, ell: Ellipsoid, datum: str | None, lat0: float,
                 lon0: float, k0: float, fe: float, fn: float):
        self.ell = ell
        self.datum = datum
        self.lat0 = np.deg2rad(lat0)
        self.lon0 = np.deg2rad(lon0)
        self.k0 = k0
        self.fe = fe
        self.fn = fn
        _, ny0 = _tm_forward_ell(np.array([self.lon0]), np.array([self.lat0]),
                                 ell, self.lon0)
        self.ny0 = float(ny0[0])

    def forward(self, lon, lat):
        """geodetic radians (on the grid's own datum) → (E, N)."""
        ex, ny = _tm_forward_ell(lon, lat, self.ell, self.lon0)
        return self.fe + self.k0 * ex, self.fn + self.k0 * (ny - self.ny0)

    def inverse(self, e, n):
        x = (np.asarray(e, np.float64) - self.fe) / self.k0
        y = (np.asarray(n, np.float64) - self.fn) / self.k0 + self.ny0
        return _tm_inverse_ell(x, y, self.ell, self.lon0)


class ObliqueStereo:
    """EPSG method 9809 (oblique "double" stereographic), e.g. RD New
    EPSG:28992.  Formulas: EPSG Guidance Note 7-2 §3.2.2."""

    def __init__(self, ell: Ellipsoid, datum: str | None, lat0: float,
                 lon0: float, k0: float, fe: float, fn: float):
        self.ell = ell
        self.datum = datum
        self.lat0 = np.deg2rad(lat0)
        self.lon0 = np.deg2rad(lon0)
        self.k0 = k0
        self.fe = fe
        self.fn = fn
        e2 = ell.e2
        e = ell.e
        s0 = np.sin(self.lat0)
        rho0 = ell.a * (1.0 - e2) / (1.0 - e2 * s0 * s0) ** 1.5
        nu0 = ell.a / np.sqrt(1.0 - e2 * s0 * s0)
        self.R = np.sqrt(rho0 * nu0)
        self.n = np.sqrt(1.0 + e2 * np.cos(self.lat0) ** 4 / (1.0 - e2))
        S1 = (1.0 + s0) / (1.0 - s0)
        S2 = (1.0 - e * s0) / (1.0 + e * s0)
        w1 = (S1 * S2**e) ** self.n
        sin_chi0 = (w1 - 1.0) / (w1 + 1.0)
        self.c = ((self.n + s0) * (1.0 - sin_chi0)
                  / ((self.n - s0) * (1.0 + sin_chi0)))
        w2 = self.c * w1
        self.chi0 = np.arcsin((w2 - 1.0) / (w2 + 1.0))
        self.lam0 = self.lon0

    def forward(self, lon, lat):
        e = self.ell.e
        s = np.sin(lat)
        Sa = (1.0 + s) / (1.0 - s)
        Sb = (1.0 - e * s) / (1.0 + e * s)
        w = self.c * (Sa * Sb**e) ** self.n
        chi = np.arcsin((w - 1.0) / (w + 1.0))
        lam = self.n * (lon - self.lam0) + self.lam0
        dl = lam - self.lam0
        B = (1.0 + np.sin(chi) * np.sin(self.chi0)
             + np.cos(chi) * np.cos(self.chi0) * np.cos(dl))
        E = self.fe + 2.0 * self.R * self.k0 * np.cos(chi) * np.sin(dl) / B
        N = self.fn + 2.0 * self.R * self.k0 * (
            np.sin(chi) * np.cos(self.chi0)
            - np.cos(chi) * np.sin(self.chi0) * np.cos(dl)) / B
        return E, N

    def inverse(self, E, N):
        e = self.ell.e
        Ep = np.asarray(E, np.float64) - self.fe
        Np = np.asarray(N, np.float64) - self.fn
        g = 2.0 * self.R * self.k0 * np.tan(np.pi / 4.0 - self.chi0 / 2.0)
        h = 4.0 * self.R * self.k0 * np.tan(self.chi0) + g
        i = np.arctan2(Ep, h + Np)
        j = np.arctan2(Ep, g - Np) - i
        chi = self.chi0 + 2.0 * np.arctan(
            (Np - Ep * np.tan(j / 2.0)) / (2.0 * self.R * self.k0))
        lam = j + 2.0 * i + self.lam0
        lon = (lam - self.lam0) / self.n + self.lam0
        # conformal χ → geodetic φ via the isometric latitude
        psi = 0.5 * np.log((1.0 + np.sin(chi))
                           / (self.c * (1.0 - np.sin(chi)))) / self.n
        lat = 2.0 * np.arctan(np.exp(psi)) - np.pi / 2.0
        for _ in range(8):
            s = np.sin(lat)
            psi_i = np.log(np.tan(lat / 2.0 + np.pi / 4.0)
                           * ((1.0 - e * s) / (1.0 + e * s)) ** (e / 2.0))
            lat = lat - (psi_i - psi) * np.cos(lat) \
                * (1.0 - self.ell.e2 * s * s) / (1.0 - self.ell.e2)
        return lon, lat


class WebMercator:
    """EPSG:3857 — spherical Mercator on the WGS84 semi-major axis."""

    ell = WGS84
    datum = None

    def forward(self, lon, lat):
        x = WGS84.a * lon
        y = WGS84.a * np.log(np.tan(np.pi / 4.0 + lat / 2.0))
        return x, y

    def inverse(self, x, y):
        lon = np.asarray(x, np.float64) / WGS84.a
        lat = 2.0 * np.arctan(np.exp(np.asarray(y, np.float64) / WGS84.a)) \
            - np.pi / 2.0
        return lon, lat


#: national grids keyed by EPSG tag (EPSG registry parameter sets)
GRIDS = {
    "EPSG:27700": TMGrid(AIRY1830, "OSGB36", 49.0, -2.0, 0.9996012717,
                         400000.0, -100000.0),
    "EPSG:28992": ObliqueStereo(BESSEL1841, "AMERSFOORT",
                                52.0 + 9.0 / 60.0 + 22.178 / 3600.0,
                                5.0 + 23.0 / 60.0 + 15.5 / 3600.0,
                                0.9999079, 155000.0, 463000.0),
    "EPSG:3857": WebMercator(),
}


# ---------------------------------------------------------------------------
# CRS tags + batch transform (M2) + bbox→WGS84 (M8)
# ---------------------------------------------------------------------------


def _parse_crs(tag: str):
    t = tag.upper().replace(" ", "")
    if t in ("EPSG:4326", "WGS84"):
        return ("geographic",)
    if t == "EPSG:3395":
        return ("mercator",)
    def _zone(z: int) -> int:
        # UTM zones are 1-60; 32661/32761 are UPS (polar stereographic,
        # not transverse Mercator) and 32600/327xx>60 are unassigned —
        # running them through the TM series would be silently wrong
        if not 1 <= z <= 60:
            raise ValueError(f"unsupported CRS tag {tag!r}: UTM zone "
                             f"{z} is outside 1-60 (UPS/polar codes are "
                             "not supported)")
        return z

    if t.startswith("UTM:"):
        z = t[4:]
        south = z.endswith("S")
        return ("utm", _zone(int(z.rstrip("NS"))), south)
    # standard EPSG codes for WGS84/UTM: 326xx = zone xx north,
    # 327xx = zone xx south (what a user's UTM files actually carry)
    if t.startswith("EPSG:326") and len(t) == 10 and t[8:].isdigit():
        return ("utm", _zone(int(t[8:])), False)
    if t.startswith("EPSG:327") and len(t) == 10 and t[8:].isdigit():
        return ("utm", _zone(int(t[8:])), True)
    if t in GRIDS:
        return ("grid", t)
    raise ValueError(f"unsupported CRS tag {tag!r} (supported: EPSG:4326, "
                     "EPSG:3395, EPSG:3857, EPSG:27700, EPSG:28992, "
                     "EPSG:326xx/327xx (UTM), UTM:<zone><N|S>)")


def transform(x, y, src: str, dst: str):
    """Project (x, y) arrays from ``src`` CRS to ``dst`` CRS (through
    WGS84 geographic as the hub, like the reference's pyproj
    transformers; national grids apply their published Helmert datum
    shift on the way through)."""
    s = _parse_crs(src)
    d = _parse_crs(dst)
    if s == d:
        return np.asarray(x, np.float64), np.asarray(y, np.float64)
    # source → WGS84 lon/lat degrees
    if s[0] == "geographic":
        lon, lat = np.asarray(x, np.float64), np.asarray(y, np.float64)
    elif s[0] == "mercator":
        lon, lat = mercator_inverse(x, y)
    elif s[0] == "utm":
        lon, lat = utm_inverse(x, y, s[1], s[2])
    else:
        grid = GRIDS[s[1]]
        lon_r, lat_r = grid.inverse(np.asarray(x, np.float64),
                                    np.asarray(y, np.float64))
        lon_r, lat_r = _datum_to_wgs84(lon_r, lat_r, grid.ell, grid.datum)
        lon, lat = np.rad2deg(lon_r), np.rad2deg(lat_r)
    # WGS84 lon/lat degrees → destination
    if d[0] == "geographic":
        return lon, lat
    if d[0] == "mercator":
        return mercator_forward(lon, lat)
    if d[0] == "utm":
        return utm_forward(lon, lat, d[1], d[2])
    grid = GRIDS[d[1]]
    lon_r, lat_r = np.deg2rad(lon), np.deg2rad(lat)
    lon_r, lat_r = _datum_from_wgs84(lon_r, lat_r, grid.ell, grid.datum)
    return grid.forward(lon_r, lat_r)


def bbox_to_wgs84(x0: float, y0: float, x1: float, y1: float, src: str):
    """Projected bbox → geographic (lon/lat) bbox (M8,
    availability.py:76-77).  Edges are densified before inverse
    projection so curvature of the projected graticule is bounded."""
    n = 32  # points per edge
    t = np.linspace(0.0, 1.0, n)
    ex = np.concatenate([x0 + (x1 - x0) * t, np.full(n, x1),
                         x1 + (x0 - x1) * t, np.full(n, x0)])
    ey = np.concatenate([np.full(n, y0), y0 + (y1 - y0) * t,
                         np.full(n, y1), y1 + (y0 - y1) * t])
    lon, lat = transform(ex, ey, src, "EPSG:4326")
    return float(lon.min()), float(lat.min()), float(lon.max()), float(lat.max())
