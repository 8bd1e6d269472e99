"""CopyCat core: workspace, session, auto-complete, engine, export, usersim."""

from .autocomplete import AutoCompleteGenerator
from .engine import QueryEngine
from .export import to_csv, to_map_html, to_map_markers, to_xml
from .session import CopyCatSession, PasteOutcome
from .suggestions import ColumnSuggestion, QuerySuggestion, RowSuggestion, TypeSuggestion
from .usersim import InteractionCounter, KeystrokeModel, ManualUser, ScpUser, TaskResult
from .workspace import Cell, CellState, Column, Mode, Workspace, WorkspaceTable

__all__ = [
    "AutoCompleteGenerator", "Cell", "CellState", "Column", "ColumnSuggestion",
    "CopyCatSession", "InteractionCounter", "KeystrokeModel", "ManualUser",
    "Mode", "PasteOutcome", "QueryEngine", "QuerySuggestion", "RowSuggestion",
    "ScpUser", "TaskResult", "TypeSuggestion", "Workspace", "WorkspaceTable",
    "to_csv", "to_map_html", "to_map_markers", "to_xml",
]
