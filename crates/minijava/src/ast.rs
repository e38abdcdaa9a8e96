//! The mini-Java abstract syntax tree (pre-lowering).

use canvas_logic::TypeName;

use crate::ir::Span;

/// A class declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct ClassDecl {
    /// Class name.
    pub name: TypeName,
    /// Instance fields.
    pub fields: Vec<FieldDecl>,
    /// Static fields (treated as global variables by the analyses).
    pub statics: Vec<FieldDecl>,
    /// Methods, including constructors under the name `<init>`.
    pub methods: Vec<MethodDecl>,
    /// Declaration position.
    pub span: Span,
}

/// A field declaration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Declared type (component, client, or opaque like `Object`).
    pub ty: TypeName,
    /// Declaration position.
    pub span: Span,
}

/// A method declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct MethodDecl {
    /// Method name (`<init>` for constructors).
    pub name: String,
    /// Whether the method is `static`.
    pub is_static: bool,
    /// Parameters as (name, type).
    pub params: Vec<(String, TypeName)>,
    /// Declared return type (`None` for `void`).
    pub ret_ty: Option<TypeName>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Declaration position.
    pub span: Span,
    /// Line of the body's closing brace.
    pub end_line: u32,
}

/// A statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Stmt {
    /// `T x;` or `T x = e;`
    VarDecl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: TypeName,
        /// Optional initializer.
        init: Option<Expr>,
        /// Source position.
        span: Span,
    },
    /// `lhs = e;`
    Assign {
        /// Assigned location.
        lhs: LValue,
        /// Assigned value.
        rhs: Expr,
        /// Source position.
        span: Span,
    },
    /// An expression evaluated for effect, e.g. a call.
    ExprStmt {
        /// The expression.
        expr: Expr,
        /// Source position.
        span: Span,
    },
    /// `if (cond) { … } else { … }` — the condition is kept only for the
    /// component calls it contains; the branch itself is nondeterministic.
    If {
        /// Component-relevant expressions evaluated by the condition.
        cond_effects: Vec<Expr>,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
        /// Source position.
        span: Span,
    },
    /// `while (cond) { … }` — condition handled as in [`Stmt::If`]; its
    /// effects are evaluated before every iteration test.
    While {
        /// Component-relevant expressions evaluated by the condition.
        cond_effects: Vec<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source position.
        span: Span,
    },
    /// `return;` or `return e;`
    Return {
        /// Returned value.
        value: Option<Expr>,
        /// Source position.
        span: Span,
    },
    /// A statement sequence with no branching (used by the `for` desugar to
    /// splice the init statement before the loop).
    Block(Vec<Stmt>),
}

/// An assignable location.
#[derive(Clone, PartialEq, Debug)]
pub enum LValue {
    /// A local variable, parameter, or (possibly unqualified) static field.
    Var(String),
    /// `base.field`; chained bases are flattened via temporaries during
    /// lowering.
    Field {
        /// The base expression (`this` allowed).
        base: Box<Expr>,
        /// The stored-to field.
        field: String,
    },
}

/// An expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A variable reference (`x`, `this`, or an unqualified static).
    Var(String),
    /// `base.field` — reading a field.
    FieldGet {
        /// Base expression.
        base: Box<Expr>,
        /// Read field.
        field: String,
    },
    /// `new T(args)`.
    New {
        /// Allocated type.
        ty: TypeName,
        /// Constructor arguments.
        args: Vec<Expr>,
        /// Source position (identifies the allocation site).
        span: Span,
    },
    /// `recv.m(args)` or `m(args)` (implicit receiver / static call).
    Call {
        /// Receiver, if any.
        recv: Option<Box<Expr>>,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Source position (identifies the call site).
        span: Span,
    },
    /// Anything the analyses do not track: literals, arithmetic, `null`, …
    Opaque,
}
