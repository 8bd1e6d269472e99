"""Tests for the documents substrate: DOM, spreadsheet, website, rendering,
clipboard, and the simulated applications."""

from __future__ import annotations

import pytest

from repro.errors import ClipboardError, DocumentError, NavigationError
from repro.substrate.documents import (
    Browser,
    CellRange,
    CellRef,
    Clipboard,
    ListingTemplate,
    Sheet,
    SpreadsheetApp,
    Website,
    Workbook,
    document,
    element,
    paged_url,
    render_detail_page,
)


class TestDom:
    def make_list(self):
        return document(
            element(
                "ul",
                element("li", element("b", "A"), element("span", "1"), cls="r"),
                element("li", element("b", "B"), element("span", "2"), cls="r"),
                cls="listing",
            ),
            title="T",
        )

    def test_find_all_by_tag_and_class(self):
        dom = self.make_list()
        assert len(dom.find_all("li")) == 2
        assert len(dom.find_all("ul", "listing")) == 1

    def test_find_raises_when_missing(self):
        with pytest.raises(DocumentError):
            self.make_list().find("table")

    def test_text_content_normalizes(self):
        dom = self.make_list()
        assert dom.find("li").text_content() == "A 1"

    def test_text_leaves_in_order(self):
        dom = self.make_list()
        assert [leaf.text for leaf in dom.find("ul").text_leaves()] == ["A", "1", "B", "2"]

    def test_path_roundtrip(self):
        dom = self.make_list()
        second_li = dom.find_all("li")[1]
        path = second_li.path()
        assert dom.resolve(path) is second_li

    def test_resolve_bad_path(self):
        dom = self.make_list()
        with pytest.raises(DocumentError):
            dom.resolve((("html", 0), ("body", 0), ("table", 0)))

    def test_signature_matches_for_template_twins(self):
        dom = self.make_list()
        li1, li2 = dom.find_all("li")
        assert li1.signature() == li2.signature()

    def test_signature_differs_for_different_shape(self):
        a = element("li", element("b", "x"))
        b = element("li", element("i", "x"))
        assert a.signature() != b.signature()

    def test_to_html_roundtrip_contains_attrs(self):
        html = self.make_list().to_html()
        assert '<ul class="listing">' in html
        assert html.startswith("<html>")

    def test_pretty_rendering_indents(self):
        pretty = self.make_list().to_html(pretty=True)
        assert "\n" in pretty

    def test_string_child_becomes_text_node(self):
        node = element("p", "hello")
        assert node.children[0].is_text

    def test_iter_preorder(self):
        dom = element("a", element("b"), element("c"))
        assert [n.tag for n in dom.iter()] == ["a", "b", "c"]


class TestSpreadsheet:
    def make_sheet(self):
        sheet = Sheet("S", header=["x", "y"])
        sheet.extend([[1, 2], [3, 4], [5, 6]])
        return sheet

    def test_dimensions(self):
        sheet = self.make_sheet()
        assert (sheet.n_rows, sheet.n_cols) == (3, 2)

    def test_header_width_enforced(self):
        with pytest.raises(DocumentError):
            self.make_sheet().append_row([1])

    def test_cell_and_column(self):
        sheet = self.make_sheet()
        assert sheet.cell(1, 0) == 3
        assert sheet.column(1) == [2, 4, 6]
        assert sheet.column_by_name("y") == [2, 4, 6]

    def test_column_by_bad_name(self):
        with pytest.raises(DocumentError):
            self.make_sheet().column_by_name("z")

    def test_cell_out_of_range(self):
        with pytest.raises(DocumentError):
            self.make_sheet().cell(99, 0)

    def test_region_and_text(self):
        sheet = self.make_sheet()
        rng = CellRange(0, 0, 1, 1)
        assert sheet.region(rng) == [[1, 2], [3, 4]]
        assert sheet.region_text(rng) == "1\t2\n3\t4"

    def test_region_out_of_bounds(self):
        with pytest.raises(DocumentError):
            self.make_sheet().region(CellRange(0, 0, 9, 9))

    def test_inverted_range_rejected(self):
        with pytest.raises(DocumentError):
            CellRange(2, 0, 0, 0)

    def test_cellref_a1(self):
        assert CellRef(0, 0).a1() == "A1"
        assert CellRef(9, 25).a1() == "Z10"
        assert CellRef(0, 26).a1() == "AA1"

    def test_find_value(self):
        assert self.make_sheet().find_value(4) == CellRef(1, 1)
        assert self.make_sheet().find_value(99) is None

    def test_workbook(self):
        book = Workbook("W")
        book.new_sheet("A")
        book.new_sheet("B")
        assert book.sheet_names() == ["A", "B"]
        assert book.first_sheet.name == "A"
        with pytest.raises(DocumentError):
            book.new_sheet("A")
        with pytest.raises(DocumentError):
            book.sheet("C")

    def test_empty_workbook_first_sheet(self):
        with pytest.raises(DocumentError):
            Workbook("W").first_sheet


class TestWebsite:
    def make_site(self):
        site = Website("http://example.test")
        for page in range(1, 4):
            site.add_page(paged_url("list", page), document(title=f"p{page}"))
        site.add_page("detail/1", document(title="d1"))
        site.add_page("detail/2", document(title="d2"))
        site.add_page("about", document(title="about"))
        return site

    def test_fetch_and_404(self):
        site = self.make_site()
        assert site.fetch("about").title == "about"
        with pytest.raises(NavigationError):
            site.fetch("missing")

    def test_duplicate_page_rejected(self):
        site = self.make_site()
        with pytest.raises(NavigationError):
            site.add_page("about", document())

    def test_url_family_query_param(self):
        site = self.make_site()
        family = site.url_family("list?page=2")
        assert len(family) == 3
        assert family[0].endswith("page=1")  # numeric ordering

    def test_url_family_numeric_path(self):
        site = self.make_site()
        family = site.url_family("detail/1")
        assert len(family) == 2

    def test_url_family_singleton(self):
        site = self.make_site()
        assert site.url_family("about") == [site.absolute("about")]

    def test_form_resolution(self):
        site = self.make_site()
        site.add_form("search", ["q"], lambda values: f"detail/{values['q']}")
        page = site.submit_form("search", {"q": "2"})
        assert page.title == "d2"
        with pytest.raises(NavigationError):
            site.form("nope")
        with pytest.raises(NavigationError, match="missing fields"):
            site.form("search").submit({})


class TestListingTemplate:
    RECORDS = [
        {"Name": f"Shelter {i}", "Street": f"{i} Main St", "City": "Creek"}
        for i in range(6)
    ]

    @pytest.mark.parametrize("style", ["table", "ul", "div"])
    def test_all_records_rendered(self, style):
        template = ListingTemplate(columns=("Name", "Street", "City"), style=style, noise=0)
        dom = template.render(self.RECORDS)
        text = dom.text_content()
        for record in self.RECORDS:
            assert record["Name"] in text

    def test_noise_zero_has_no_ads(self):
        template = ListingTemplate(columns=("Name",), noise=0)
        dom = template.render(self.RECORDS)
        assert not dom.find_all("div", "ad")

    def test_noise_two_interleaves_ads(self):
        template = ListingTemplate(columns=("Name",), style="table", noise=2, seed=1)
        dom = template.render(self.RECORDS)
        ad_rows = dom.find_all("tr", "ad-row")
        assert ad_rows  # interleaved inside the table

    def test_bad_style_rejected(self):
        with pytest.raises(ValueError):
            ListingTemplate(columns=("Name",), style="grid")

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            ListingTemplate(columns=("Name",), noise=9)

    def test_detail_page(self):
        dom = render_detail_page(self.RECORDS[0], ("Name", "Street"), "Name")
        assert "Shelter 0" in dom.text_content()
        assert dom.find("dl", "detail")


class TestClipboardAndApps:
    def make_env(self):
        site = Website("http://n.test")
        template = ListingTemplate(columns=("Name", "City"), style="table", noise=0)
        records = [{"Name": "A", "City": "X"}, {"Name": "B", "City": "Y"}]
        site.add_page("list", template.render(records))
        clip = Clipboard()
        browser = Browser(clip, site)
        return site, clip, browser

    def test_empty_clipboard_raises(self):
        clip = Clipboard()
        with pytest.raises(ClipboardError):
            clip.current()
        assert clip.is_empty

    def test_copy_record_fields_are_tab_separated(self):
        _, clip, browser = self.make_env()
        browser.navigate("http://n.test/list")
        row = browser.page.dom.find_all("tr", "record")[0]
        event = browser.copy_record(row, "Src")
        assert event.fields == [["A", "X"]]
        assert clip.current() is event
        assert event.context.url.endswith("/list")
        assert event.context.container is not None

    def test_copy_text_must_be_on_page(self):
        _, _, browser = self.make_env()
        browser.navigate("http://n.test/list")
        with pytest.raises(ClipboardError):
            browser.copy_text("NotOnPage", "Src")

    def test_navigate_unknown_site(self):
        _, _, browser = self.make_env()
        with pytest.raises(NavigationError):
            browser.navigate("http://other.test/x")

    def test_clipboard_history_and_listeners(self):
        _, clip, browser = self.make_env()
        seen = []
        clip.subscribe(seen.append)
        browser.navigate("http://n.test/list")
        row = browser.page.dom.find_all("tr", "record")[0]
        browser.copy_record(row, "Src")
        browser.copy_record(row, "Src")
        assert len(seen) == 2
        assert clip.current() is seen[-1]

    def test_spreadsheet_copy_range(self):
        book = Workbook("W")
        sheet = book.new_sheet("S", header=["a", "b"])
        sheet.extend([[1, 2], [3, 4]])
        clip = Clipboard()
        app = SpreadsheetApp(clip, book)
        app.open_sheet()
        event = app.copy_range(CellRange(0, 0, 1, 1))
        assert event.fields == [["1", "2"], ["3", "4"]]
        assert event.is_tabular
        assert event.context.app == "spreadsheet"

    def test_spreadsheet_copy_row_and_cells(self):
        book = Workbook("W")
        sheet = book.new_sheet("S", header=["a", "b"])
        sheet.extend([[1, 2]])
        app = SpreadsheetApp(Clipboard(), book)
        app.open_sheet("S")
        assert app.copy_row(0).fields == [["1", "2"]]
        assert app.copy_cells([(0, 1)]).fields == [["2"]]
        with pytest.raises(ClipboardError):
            app.copy_cells([])

    def test_no_sheet_open(self):
        app = SpreadsheetApp(Clipboard(), Workbook("W"))
        with pytest.raises(DocumentError):
            _ = app.sheet
