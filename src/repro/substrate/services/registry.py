"""Service registry: the set of predefined services CopyCat knows about.

Section 2.1: "CopyCat has existing knowledge of several data sources and Web
services". The registry bundles construction of the standard service suite
over one gazetteer and registers them into a catalog.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..relational.catalog import Catalog, SourceMetadata

from .base import Service
from .conversion import make_currency_converter, make_unit_converter
from .directory import make_forward_directory, make_reverse_directory
from .gazetteer import Gazetteer
from .geocode import make_geocoder, make_place_resolver
from .zipcode import make_city_zip_directory, make_zipcode_resolver


class ServiceRegistry:
    """Builds and tracks the predefined service suite."""

    def __init__(self, gazetteer: Gazetteer):
        self.gazetteer = gazetteer
        self._services: dict[str, Service] = {}

    def add(self, service: Service) -> Service:
        self._services[service.name] = service
        return service

    def get(self, name: str) -> Service:
        return self._services[name]

    def names(self) -> list[str]:
        return sorted(self._services)

    def services(self) -> list[Service]:
        return [self._services[name] for name in self.names()]

    # -- standard suite ------------------------------------------------------
    def install_location_services(self) -> "ServiceRegistry":
        self.add(make_zipcode_resolver(self.gazetteer))
        self.add(make_geocoder(self.gazetteer))
        self.add(make_city_zip_directory(self.gazetteer))
        return self

    def install_conversion_services(self) -> "ServiceRegistry":
        self.add(make_currency_converter())
        self.add(make_unit_converter())
        return self

    def install_place_resolver(self, places: Mapping[str, Mapping[str, Any]]) -> "ServiceRegistry":
        self.add(make_place_resolver(places))
        return self

    def install_directories(self, contacts: Sequence[Mapping[str, str]]) -> "ServiceRegistry":
        self.add(make_reverse_directory(contacts))
        self.add(make_forward_directory(contacts))
        return self

    def register_all(self, catalog: Catalog) -> None:
        """Register every built service into *catalog* as predefined."""
        for service in self.services():
            catalog.add_service(
                service, metadata=SourceMetadata(origin="predefined"), replace=True
            )
