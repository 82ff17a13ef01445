"""XML Schema object model (the subset the engine registers, Fig. 4).

Supported constructs — the data-centric core of XSD:

* global ``xs:element`` declarations with named or inline types;
* ``xs:complexType`` with ``xs:sequence`` / ``xs:choice`` content (arbitrary
  nesting, ``minOccurs``/``maxOccurs``) and ``xs:attribute`` declarations;
* built-in simple types: string, integer, decimal, double, date, boolean.

The model is parsed from schema text by :func:`parse_schema` using the
engine's own XML parser, then compiled to the binary format by
:mod:`repro.xschema.compiler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.xdm.events import build_tree
from repro.xdm.nodes import ElementNode
from repro.xdm.parser import parse

XSD_NS = "http://www.w3.org/2001/XMLSchema"

#: Built-in simple types and their lexical validators.
SIMPLE_TYPES = ("string", "integer", "decimal", "double", "date", "boolean")


@dataclass(frozen=True)
class AttributeDecl:
    name: str
    simple_type: str = "string"
    required: bool = False


@dataclass
class Particle:
    """A term with occurrence bounds."""

    term: "ElementRef | Sequence | Choice"
    min_occurs: int = 1
    max_occurs: int | None = 1  # None = unbounded


@dataclass
class ElementRef:
    name: str


@dataclass
class Sequence:
    particles: list[Particle] = field(default_factory=list)


@dataclass
class Choice:
    particles: list[Particle] = field(default_factory=list)


@dataclass
class ComplexType:
    name: str
    attributes: list[AttributeDecl] = field(default_factory=list)
    #: None content means empty; a str names a simple type (simple content);
    #: otherwise a content-model particle.
    content: Particle | str | None = None


@dataclass
class ElementDecl:
    name: str
    type_name: str  # a simple type name or a complex type name


@dataclass
class Schema:
    """A parsed schema: global elements plus named types."""

    elements: dict[str, ElementDecl] = field(default_factory=dict)
    types: dict[str, ComplexType] = field(default_factory=dict)


def _strip_xs(type_text: str) -> str:
    name = type_text.split(":")[-1]
    aliases = {"int": "integer", "long": "integer", "short": "integer",
               "float": "double", "token": "string",
               "normalizedString": "string"}
    return aliases.get(name, name)


def parse_schema(text: str) -> Schema:
    """Parse schema text into the object model."""
    tree = build_tree(parse(text, strip_whitespace=True))
    root = tree.document_element()  # type: ignore[union-attr]
    if (root.local, root.uri) != ("schema", XSD_NS):
        raise SchemaError("document element must be xs:schema")
    schema = Schema()
    anonymous = 0

    def parse_particle_children(container: ElementNode) -> list[Particle]:
        particles = []
        for child in container.elements():
            if child.uri != XSD_NS:
                raise SchemaError(f"unexpected element {child.local!r}")
            if child.local == "element":
                particles.append(_occurs(child, Particle(ElementRef(
                    _require(child, "name") if child.get_attribute("name")
                    else _require(child, "ref")))))
                # Inline declarations register globally too.
                if child.get_attribute("name"):
                    declare_element(child)
            elif child.local == "sequence":
                particles.append(_occurs(child, Particle(
                    Sequence(parse_particle_children(child)))))
            elif child.local == "choice":
                particles.append(_occurs(child, Particle(
                    Choice(parse_particle_children(child)))))
            else:
                raise SchemaError(
                    f"unsupported content construct xs:{child.local}")
        return particles

    def parse_complex_type(node: ElementNode, name: str) -> ComplexType:
        ctype = ComplexType(name)
        for child in node.elements():
            if child.local == "attribute":
                type_attr = child.get_attribute("type")
                use_attr = child.get_attribute("use")
                ctype.attributes.append(AttributeDecl(
                    _require(child, "name"),
                    _simple(type_attr.value if type_attr else "string"),
                    required=(use_attr is not None
                              and use_attr.value == "required")))
            elif child.local == "sequence":
                ctype.content = Particle(
                    Sequence(parse_particle_children(child)))
            elif child.local == "choice":
                ctype.content = Particle(
                    Choice(parse_particle_children(child)))
            elif child.local == "simpleContent":
                ext = child.elements("extension")
                base = _simple(_require(ext[0], "base")) if ext else "string"
                ctype.content = base
                if ext:
                    for attr in ext[0].elements("attribute"):
                        ctype.attributes.append(AttributeDecl(
                            _require(attr, "name"),
                            _simple(attr.get_attribute("type").value
                                    if attr.get_attribute("type")
                                    else "string"),
                            required=(attr.get_attribute("use") is not None
                                      and attr.get_attribute("use").value
                                      == "required")))
            else:
                raise SchemaError(f"unsupported xs:{child.local} "
                                  f"in complexType")
        return ctype

    def declare_element(node: ElementNode) -> None:
        nonlocal anonymous
        name = _require(node, "name")
        type_attr = node.get_attribute("type")
        inline = node.elements("complexType")
        if type_attr is not None:
            schema.elements[name] = ElementDecl(name,
                                                _strip_xs(type_attr.value))
        elif inline:
            anonymous += 1
            type_name = f"#anon{anonymous}.{name}"
            schema.types[type_name] = parse_complex_type(inline[0], type_name)
            schema.elements[name] = ElementDecl(name, type_name)
        else:
            schema.elements[name] = ElementDecl(name, "string")

    for child in root.elements():
        if child.uri != XSD_NS:
            raise SchemaError(f"unexpected element {child.local!r}")
        if child.local == "element":
            declare_element(child)
        elif child.local == "complexType":
            name = _require(child, "name")
            schema.types[name] = parse_complex_type(child, name)
        else:
            raise SchemaError(f"unsupported top-level xs:{child.local}")

    # Referential integrity: every element's type must resolve.
    for decl in schema.elements.values():
        if decl.type_name not in schema.types and \
                decl.type_name not in SIMPLE_TYPES:
            raise SchemaError(
                f"element {decl.name!r} references unknown type "
                f"{decl.type_name!r}")
    return schema


def _require(node: ElementNode, attr: str) -> str:
    found = node.get_attribute(attr)
    if found is None:
        raise SchemaError(f"xs:{node.local} needs a {attr!r} attribute")
    return found.value


def _simple(type_text: str | None) -> str:
    name = _strip_xs(type_text or "string")
    if name not in SIMPLE_TYPES:
        raise SchemaError(f"unsupported simple type {type_text!r}")
    return name


def _occurs(node: ElementNode, particle: Particle) -> Particle:
    min_attr = node.get_attribute("minOccurs")
    max_attr = node.get_attribute("maxOccurs")
    if min_attr is not None:
        particle.min_occurs = int(min_attr.value)
    if max_attr is not None:
        particle.max_occurs = (None if max_attr.value == "unbounded"
                               else int(max_attr.value))
    if particle.max_occurs is not None and \
            particle.max_occurs < particle.min_occurs:
        raise SchemaError("maxOccurs below minOccurs")
    return particle
