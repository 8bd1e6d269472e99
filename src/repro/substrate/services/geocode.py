"""Geocoding and address-resolution services.

Example 1: the integrator copies a shelter name "into Google Maps to get its
full address and geocode ... In some cases the shelter name may be ambiguous
and might return multiple answers: here CopyCat would show the alternatives
and allow the integrator to select the appropriate location."

Two services are provided:

- :func:`make_geocoder` — (Street, City) → (Lat, Lon), exact, functional.
- :func:`make_place_resolver` — Name → (Street, City, Lat, Lon): a fuzzy
  place-name lookup with controllable ambiguity (several candidate rows for
  a sufficiently generic query), modeling the map-site search box.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ...util.strings import StringProfile, profile_token_jaccard
from ..relational.schema import (
    CITY,
    LATITUDE,
    LONGITUDE,
    NAME,
    STREET,
    Attribute,
    BindingPattern,
    Schema,
)
from .base import Service, TableBackedService
from .gazetteer import Gazetteer

GEOCODER_NAME = "Geocoder"
PLACE_RESOLVER_NAME = "PlaceResolver"


def make_geocoder(gazetteer: Gazetteer, name: str = GEOCODER_NAME) -> TableBackedService:
    """(Street, City) → (Lat, Lon) over the gazetteer."""
    schema = Schema(
        [
            Attribute("Street", STREET),
            Attribute("City", CITY),
            Attribute("Lat", LATITUDE),
            Attribute("Lon", LONGITUDE),
        ]
    )
    table = [
        {
            "Street": address.street,
            "City": address.city,
            "Lat": address.lat,
            "Lon": address.lon,
        }
        for address in gazetteer.addresses
    ]
    return TableBackedService(
        name=name,
        schema=schema,
        binding=BindingPattern(inputs=("Street", "City")),
        table=table,
        cost=1.0,
    )


class PlaceResolver(Service):
    """Fuzzy place-name search: Name → (Street, City, Lat, Lon).

    ``places`` maps a place name to its address; lookups match on token
    overlap so a partial query like ``"Monarch High"`` finds
    ``"Monarch High School"``, and a generic query like ``"Community
    Center"`` returns *multiple* candidates (the paper's ambiguity case).
    """

    def __init__(
        self,
        places: Mapping[str, Mapping[str, Any]],
        name: str = PLACE_RESOLVER_NAME,
        min_overlap: float = 0.5,
        max_results: int = 5,
    ):
        schema = Schema(
            [
                Attribute("Name", NAME),
                Attribute("Street", STREET),
                Attribute("City", CITY),
                Attribute("Lat", LATITUDE),
                Attribute("Lon", LONGITUDE),
            ]
        )
        super().__init__(name, schema, BindingPattern(inputs=("Name",)), cost=1.2)
        self._places = {place: dict(info) for place, info in places.items()}
        # Each place name is tokenised once, on its first comparison.
        self._profiles = {place: StringProfile(place) for place in self._places}
        self._min_overlap = min_overlap
        self._max_results = max_results

    def _lookup(self, inputs: Mapping[str, Any]) -> Sequence[Mapping[str, Any]]:
        query = str(inputs["Name"])
        scored: list[tuple[float, str]] = []
        query_profile = StringProfile(query)
        for place, place_profile in self._profiles.items():
            if place.lower() == query.lower():
                scored.append((1.01, place))  # exact match outranks everything
                continue
            overlap = profile_token_jaccard(place_profile, query_profile)
            if overlap >= self._min_overlap:
                scored.append((overlap, place))
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        out = []
        for _, place in scored[: self._max_results]:
            info = self._places[place]
            out.append(
                {
                    "Street": info["Street"],
                    "City": info["City"],
                    "Lat": info["Lat"],
                    "Lon": info["Lon"],
                }
            )
        return out


def make_place_resolver(
    places: Mapping[str, Mapping[str, Any]], name: str = PLACE_RESOLVER_NAME
) -> PlaceResolver:
    """Build a :class:`PlaceResolver` from ``{place name: address info}``."""
    return PlaceResolver(places, name=name)
