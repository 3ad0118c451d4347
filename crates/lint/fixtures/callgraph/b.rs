//! Call-graph fixture, module B: trait dispatch — typed (exact) and
//! untyped (merged across every implementor), through a parameter, a
//! binding or a closure parameter — plus a shadowing `helper` that
//! must capture B's own call sites but never A's.

pub struct Panel;

pub trait Draw {
    fn draw(&self);
}

impl Draw for Panel {
    fn draw(&self) {
        helper();
    }
}

pub struct Sprite;

impl Draw for Sprite {
    fn draw(&self) {}
}

pub fn show(p: &Panel) {
    p.draw();
}

pub fn blit() {
    let v = opaque();
    v.draw();
}

pub fn show_each(panels: &[Panel]) {
    panels.iter().for_each(|p: &Panel| p.draw());
}

pub fn blit_each(sprites: &[Sprite]) {
    sprites.iter().for_each(|s| s.draw());
}

fn helper() {}
