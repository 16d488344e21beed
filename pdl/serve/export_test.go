package serve

import "context"

// DoGroup exposes the span-group submission the Server uses for stream
// chunks to the external test package.
func (f *Frontend) DoGroup(ctx context.Context, op Op) error { return f.doGroup(ctx, op) }

// GoGroup is DoGroup's asynchronous form.
func (f *Frontend) GoGroup(ctx context.Context, op Op, complete func(error)) error {
	return f.goGroup(ctx, op, complete)
}
